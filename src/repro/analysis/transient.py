"""Counting ASes that experience transient routing problems.

The paper's metric (section 6.2): after a routing event, an AS
"experiences transient problems" if at any instant during convergence
the data plane from it toward the destination loops or blackholes —
given that it had working connectivity before the event.  We replay the
forwarding-change trace and classify every eligible AS at every instant
at which any control-plane state changed, including the instant of the
event itself.

The scan is *incremental*: the plane compiles the snapshot onto its
successor table (:class:`repro.forwarding.walk.SuccessorTable`), every
replayed change is fed to the table as it is written, and at the end of
each instant the table reports exactly the sources whose packet fate
changed — a changed key only counts when what walks can observe of it
(e.g. a route's next hop) actually changed, and a flush costs the fates
it changes.  On Internet-like topologies a convergence instant
typically touches one or two ASes' forwarding state, turning the
per-instant cost from O(all eligible walks) into O(affected walks).
The full-rescan implementation the equivalence tests pin this to lives
in ``tests/reference/transient.py``.

An episode (:mod:`repro.experiments.scenarios`) is one snapshot (the
state at its first injection instant) plus a *sequence* of
:class:`EpisodeSegment` phases, each with its own failure state and
slice of the trace.  The trace is complete, so the state at a phase's
start *is* the replayed end of the phase before it: the analyzer
replays every phase onto one dict in place and a phase costs what it
changed.  :func:`analyze_episode_transient_problems` produces one
:class:`TransientReport` per phase (disruption attributable to each
injected event) plus an episode-wide overall report whose problem
intervals span phase boundaries — an AS blackholed across an entire
fail window and healed by a later restore counts as *transiently*
affected, which no concatenation of independent per-phase analyses can
express.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.forwarding.walk import SuccessorTable, WalkClassifier
from repro.sim.tracing import ForwardingChange, ForwardingTrace
from repro.types import ASN, Link, Outcome


#: The one empty AS set every finished report shares (CPython stopped
#: interning the empty frozenset in 3.10).
_EMPTY: FrozenSet[ASN] = frozenset()

#: A state key the replayed dict does not hold yet.
_ABSENT = object()


def _frozen(ases: AbstractSet[ASN]) -> FrozenSet[ASN]:
    """``ases`` as a frozenset; the shared :data:`_EMPTY` when empty."""
    return frozenset(ases) if ases else _EMPTY


class Timeline:
    """A ``(time, count)`` series held as two flat columns.

    Reads as the list of pairs it stands for: iteration, indexing by
    position, ``len``, ``repr`` and equality (with a list too) are the
    list's, and like a list it is unhashable.
    An instant costs 8 bytes of count here and 8 of time in ``times``,
    a column that a report's two series share.
    """

    __slots__ = ("times", "counts")

    def __init__(self, times: Sequence[float], counts: Sequence[int]) -> None:
        self.times = times
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return zip(self.times, self.counts)

    def __getitem__(self, index: int) -> Tuple[float, int]:
        return self.times[index], self.counts[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Timeline, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


#: The series of a report that observed no instant (nothing eligible,
#: or a phase with no scan of its own): shared, and read-only.
_NO_INSTANTS = Timeline((), ())


@dataclass
class TransientReport:
    """Result of one scenario's transient-problem analysis.

    A finished report holds its AS sets frozen: a campaign keeps every
    run's reports alive, so the empty sets are all :data:`_EMPTY` and a
    phase whose eligibility equals the phase before it shares that
    phase's set (see :func:`analyze_episode_transient_problems`).  Its
    two series are flat columns (:class:`Timeline`); a pickle holds them
    as lists of pairs, the shape ledgers have always held, and loads
    them flat again.
    """

    #: ASes that were delivered pre-event (the eligible population).
    eligible: FrozenSet[ASN] = _EMPTY
    #: Eligible ASes that looped or blackholed at some instant but
    #: regained connectivity by convergence (*transient* problems, the
    #: paper's metric).
    affected: FrozenSet[ASN] = _EMPTY
    #: Eligible ASes left without connectivity even after convergence:
    #: the event partitioned them (policy-wise) from the destination.
    #: No protocol can help these, so they are not "transient".
    permanently_unreachable: FrozenSet[ASN] = _EMPTY
    #: Eligible ASes that ever looped.
    looped: FrozenSet[ASN] = _EMPTY
    #: Eligible ASes that ever blackholed.
    blackholed: FrozenSet[ASN] = _EMPTY
    #: (time, cumulative #affected) series, one pair per scanned
    #: instant: 8 bytes of time (shared with ``problem_timeline``) and 8
    #: of count, no object per instant.
    timeline: Timeline = field(default_factory=lambda: _NO_INSTANTS)
    #: (time, #currently-problematic) series — the data-plane health —
    #: over the same times: 8 more bytes an instant.
    problem_timeline: Timeline = field(default_factory=lambda: _NO_INSTANTS)

    @property
    def affected_count(self) -> int:
        """Number of ASes with transient problems (the paper's y-axis)."""
        return len(self.affected)

    @property
    def disruption_duration(self) -> float:
        """Seconds between the event and the last observed problem.

        This is the data-plane view of convergence: how long any
        eligible AS kept losing packets.  Zero when the data plane never
        broke (or broke only at the event instant itself).
        """
        start = end = None
        for time, problems in self.problem_timeline:
            if problems > 0:
                if start is None:
                    start = time
                end = None
            elif start is not None and end is None:
                end = time
        if start is None:
            return 0.0
        if end is None:  # never observed recovering (permanent cases)
            end = self.problem_timeline[-1][0]
        return end - start

    def __getstate__(self) -> Dict:
        """The pickled form: the series as lists of pairs, the shape
        ledgers have always held."""
        state = dict(self.__dict__)
        state["timeline"] = list(self.timeline)
        state["problem_timeline"] = list(self.problem_timeline)
        return state

    def __setstate__(self, state: Dict) -> None:
        """Load a pickled report in the in-memory form: flat series.

        Every analyzer scans both series at the same instants, so the
        pickled pairs must agree on their times.
        """
        self.__dict__.update(state)
        timeline, problems = self.timeline, self.problem_timeline
        if not timeline:
            self.timeline = self.problem_timeline = _NO_INSTANTS
            return
        times = array("d", [time for time, _ in timeline])
        if array("d", [time for time, _ in problems]) != times:
            raise ValueError("a report's two series disagree on their times")
        self.timeline = Timeline(times, array("q", [n for _, n in timeline]))
        self.problem_timeline = Timeline(
            times, array("q", [n for _, n in problems])
        )


def analyze_transient_problems(
    trace: ForwardingTrace,
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    failed_links: FrozenSet[Link] = frozenset(),
    failed_ases: FrozenSet[ASN] = frozenset(),
) -> TransientReport:
    """Replay one event's trace and count affected ASes.

    The one-segment case of :func:`analyze_episode_transient_problems`,
    for callers that drive a network by hand.  ``initial_state`` is the
    control-plane state at the instant the event fires (trace key
    space); evaluated *without* failures it also determines
    eligibility (ASes that could deliver before the event).

    The first classified snapshot is the event instant *after* the
    event-adjacent ASes have reacted (detection is atomic in the
    simulator).  This matches the paper's Theorem 5.1, which promises
    protection "once the ASes adjacent to where the routing event
    occurred have detected the event"; the un-detectable in-flight
    window penalizes every protocol identically and is not classified.
    An AS counts as affected if its packets loop or blackhole at any
    instant, the paper's metric (section 6.2).
    """
    segment = EpisodeSegment(
        trace=trace,
        failed_links=failed_links,
        failed_ases=failed_ases,
        start_time=trace.changes[0].time if trace.changes else 0.0,
    )
    return analyze_episode_transient_problems(
        [segment], initial_state, plane, ases
    ).overall


# ----------------------------------------------------------------------
# Timed episodes: per-phase attribution + episode-wide intervals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeSegment:
    """One episode phase as the analyzer consumes it.

    ``trace`` is the phase's slice of the run's forwarding trace: the
    synchronous reactions to its events come first.  No snapshot: the
    state at its start is the episode's one snapshot replayed through
    every earlier segment.  ``failed_links``/``failed_ases`` are the
    failure sets active *after* the events, i.e. throughout the phase.
    A failed AS stays failed, so ``failed_ases`` only grows from one
    segment to the next.
    """

    trace: ForwardingTrace
    failed_links: FrozenSet[Link]
    failed_ases: FrozenSet[ASN]
    start_time: float


@dataclass
class EpisodeTransientReport:
    """Per-phase and episode-wide transient analysis of one episode.

    ``phases[k]`` is a self-contained :class:`TransientReport` of phase
    ``k`` alone (eligibility re-evaluated at the phase's start — the
    attribution view).  ``overall`` spans the whole episode with one
    eligibility baseline (pre-episode connectivity) and problem
    intervals that survive phase boundaries; its
    ``disruption_duration`` therefore measures the episode's total
    data-plane outage window.
    """

    overall: TransientReport
    phases: List[TransientReport] = field(default_factory=list)


def _delivered_sources(
    table: SuccessorTable, universe: FrozenSet[ASN]
) -> Set[ASN]:
    """The sources in ``universe`` whose packets the table delivers.

    Read off the table's undelivered rows: a source the table has no
    row for has no routes, and a row outside ``universe`` (a next hop
    interned on the way) is not a source.
    """
    asns = table.asns
    delivered = table.pos.keys() & universe
    delivered.difference_update([asns[i] for i in table.undelivered])
    return delivered


class _PhaseTracker:
    """Interval bookkeeping of one report: a phase's, or the episode's.

    Fed by :class:`_IncrementalScan`: the first scan it observes opens
    an interval for every eligible source among the table's undelivered
    rows, later scans fold in the table's outcome transitions, and
    :meth:`finalize` makes the intervals still open permanent
    unreachability and writes the report's frozen sets.
    ``problem_since`` is exactly the eligible sources not delivered at
    the last scan, so nothing here costs O(eligible).
    A phase's tracker lives for one segment, from after its boundary
    scan (an episode-level concept the standalone per-phase semantics
    never see); the episode-wide tracker observes every scan of every
    segment, which is how its intervals span phase boundaries.
    """

    __slots__ = ("report", "seeded", "problem_since")

    def __init__(self, report: TransientReport) -> None:
        self.report = report
        self.seeded = False
        #: Each open interval's problem kinds so far, by source.
        self.problem_since: Dict[ASN, Set[Outcome]] = {}
        # Filled in place while tracked, frozen by finalize.
        report.affected, report.looped, report.blackholed = set(), set(), set()

    def _seed(self, table: SuccessorTable, time: float) -> None:
        """Open an interval per eligible source the table fails."""
        eligible = self.report.eligible
        asns = table.asns
        source_outcome = table.source_outcome
        problem_since = self.problem_since
        for i in table.undelivered:
            asn = asns[i]
            if asn in eligible:
                problem_since[asn] = {source_outcome[i]}
        self.seeded = True

    def _close_interval(self, asn: ASN) -> None:
        kinds = self.problem_since.pop(asn)
        report = self.report
        report.affected.add(asn)
        if Outcome.LOOP in kinds:
            report.looped.add(asn)
        if Outcome.BLACKHOLE in kinds:
            report.blackholed.add(asn)

    def observe(self, table: SuccessorTable, transitions, time: float) -> None:
        """Fold one scanned instant into the intervals and timelines.

        ``transitions`` may name a source that ends where this tracker
        last saw it (a boundary's detour moved it there and back): a
        DELIVERED with no open interval, or a problem it already has.
        """
        problem_since = self.problem_since
        report = self.report
        if not self.seeded:
            self._seed(table, time)
            # A report's series exist from its first observed instant.
            times = array("d")
            report.timeline = Timeline(times, array("q"))
            report.problem_timeline = Timeline(times, array("q"))
        elif transitions:
            eligible = report.eligible
            delivered = Outcome.DELIVERED
            for asn, outcome in transitions:
                if asn not in eligible:
                    continue
                if outcome is delivered:
                    if asn in problem_since:
                        self._close_interval(asn)
                else:
                    kinds = problem_since.get(asn)
                    if kinds is None:
                        problem_since[asn] = {outcome}
                    else:
                        kinds.add(outcome)
        timeline = report.timeline
        timeline.times.append(time)
        timeline.counts.append(len(report.affected))
        report.problem_timeline.counts.append(len(problem_since))

    def finalize(self, table: SuccessorTable) -> TransientReport:
        """Make the intervals still open permanent unreachability.

        An AS still failing in the fully converged state was
        partitioned, not disrupted by convergence; ``table`` holds that
        state.  When no instant was ever observed (empty trace) the
        fates are read off it once, without touching the timelines.
        """
        report = self.report
        if not self.seeded:
            # Nothing was scanned since the table was last patched, so
            # no tracker is waiting for the transitions this flushes.
            table.collect_transitions()
            self._seed(table, 0.0)
        unreachable = _frozen(self.problem_since.keys())
        report.permanently_unreachable = unreachable
        report.affected = _frozen(report.affected - unreachable)
        report.looped = _frozen(report.looped - unreachable)
        report.blackholed = _frozen(report.blackholed - unreachable)
        return report


class _IncrementalScan:
    """The incremental scan engine of the analyzer.

    Owns the episode's one state dict (:meth:`replay` writes every
    segment's trace onto it in place) and the plane's successor table
    over it — built failure-free over the snapshot, then *patched*
    across every boundary (``table.apply_boundary``: the failure-set
    delta, invalidating only the walks it touches) and fed every
    change as it is replayed.  Every scan's outcome
    transitions go to the episode-wide tracker (``main``) and, when
    set, the active phase's (``phase``) — which is how the episode
    analyzer derives its per-phase attribution reports from the same
    single pass.
    """

    def __init__(self, plane: WalkClassifier, state: Dict) -> None:
        self.state = state
        self.table = plane._session_table(state, frozenset(), frozenset())
        #: Transitions flushed outside a scan (a boundary's failure-free
        #: detour), source -> latest outcome, merged into the next scan
        #: so the trackers see each source move from what they last
        #: observed.
        self.held: Dict[ASN, Outcome] = {}
        self.main: Optional[_PhaseTracker] = None
        self.phase: Optional[_PhaseTracker] = None

    def hold(self) -> None:
        """Flush the table now; report its transitions with the next scan."""
        self.held.update(self.table.collect_transitions())

    def replay(self, changes: Sequence[ForwardingChange]) -> None:
        """Replay one segment's changes in place, scanning each instant.

        One pass: a change that differs from the state dict is written
        and handed to the table (which re-derives the row only when
        what walks observe of it moved); the end of each instant
        flushes and observes.  A key that flips and flips back within
        one instant reaches the table twice and changes no fate, so it
        reports no transition.
        """
        state = self.state
        state_get = state.get
        update = self.table.update
        scan = self.scan
        time = None
        for change in changes:  # ordered by construction (trace.record)
            if change.time != time:
                if time is not None:
                    scan(time)
                time = change.time
            key = (change.asn, change.key)
            value = change.state
            if state_get(key, _ABSENT) != value:
                state[key] = value
                update(key, value)
        if time is not None:
            scan(time)

    def scan(self, time: float) -> None:
        """Flush the table and fold its transitions into the trackers."""
        table = self.table
        transitions = table.collect_transitions()
        if self.held:
            held, self.held = self.held, {}
            held.update(transitions)
            transitions = held.items()
        if self.main is not None:
            self.main.observe(table, transitions, time)
        if self.phase is not None:
            self.phase.observe(table, transitions, time)


def analyze_episode_transient_problems(
    segments: Sequence[EpisodeSegment],
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
) -> EpisodeTransientReport:
    """Analyze one episode run: one phase or many.

    ``initial_state`` is the state just before the first injection
    (trace key space), the episode's one snapshot: copied once, never
    mutated, the copy replayed in place through every segment.

    One replay pass serves both views.  The overall report runs the
    incremental engine over all segments with one interval tracker; at
    each phase boundary the engine's table is *patched* to the phase's
    failure sets, and a rescan is forced at the injection instant —
    folding in any same-instant synchronous reactions first, and
    scanning the unchanged state when there are none (a link restore
    flips walk outcomes without touching a single trace key).  The
    per-phase attribution reports (identical to analyzing each segment
    in isolation — the equivalence tests pin this) are derived from
    the same pass by a per-segment :class:`_PhaseTracker`.  Phase
    eligibility (failure-free delivery at the phase's start) is read
    off the same table on a detour: at each later boundary it is
    patched to the empty failure sets first, its delivered sources
    read, and only then patched to the phase's sets; the detour's
    transitions are held for the next scan.

    A single-segment episode — the paper's single-instant workloads —
    pays for neither: its one phase has the overall report's
    eligibility by construction and no boundary scan to skip, so
    ``phases[0]`` *is* ``overall`` (one table, one tracker).

    Every set of every returned report is a frozenset.  A phase whose
    eligibility equals the previous phase's (or, for phase 0, the
    overall report's) holds that same object, and every empty set is
    the one :data:`_EMPTY`, so a storm's reports cost their distinct
    sets once.
    """
    segments = list(segments)
    if not segments:
        return EpisodeTransientReport(overall=TransientReport())
    universe = frozenset(ases)
    # One table serves the whole analysis: built failure-free over the
    # snapshot it answers pre-episode eligibility, then it is patched
    # to each phase's failure sets in turn.
    state = dict(initial_state)
    engine = _IncrementalScan(plane, state)
    table = engine.table
    delivered = _delivered_sources(table, universe)

    # The baseline ignores failure sets (pre-event connectivity), and
    # ASes that are themselves failed at any point of the episode
    # cannot "experience" problems: the last phase's failed ASes, as a
    # failed AS stays failed.
    report = TransientReport(
        eligible=_frozen(delivered - segments[-1].failed_ases)
    )
    if report.eligible:
        engine.main = _PhaseTracker(report)

    no_failures: FrozenSet = frozenset()
    phases: List[TransientReport] = []
    # A campaign keeps every phase report alive: a phase whose
    # eligibility equals the one before it shares that set.
    eligible = report.eligible
    for index, segment in enumerate(segments):
        if index > 0:
            # The detour for phase eligibility; when either phase is
            # failure-free, one of its two patches is a no-op.
            table.apply_boundary(no_failures, no_failures)
            engine.hold()
            delivered = _delivered_sources(table, universe)
        table.apply_boundary(segment.failed_links, segment.failed_ases)
        changes = segment.trace.changes
        if index > 0 and (not changes or changes[0].time > segment.start_time):
            # Boundary scan: no synchronous reaction shares the
            # injection instant, so classify the unchanged state under
            # the new failure sets.  An episode-level instant: the
            # phase's own tracker is installed after it.
            engine.scan(segment.start_time)
        if len(segments) == 1:
            phase_report = report
        else:
            phase_eligible = delivered - segment.failed_ases
            if phase_eligible != eligible:
                eligible = _frozen(phase_eligible)
            phase_report = TransientReport(eligible=eligible)
            if eligible:
                engine.phase = _PhaseTracker(phase_report)
        engine.replay(changes)
        if engine.phase is not None:
            engine.phase.finalize(table)
            engine.phase = None
        phases.append(phase_report)

    if engine.main is not None:
        engine.main.finalize(table)
    return EpisodeTransientReport(overall=report, phases=phases)
