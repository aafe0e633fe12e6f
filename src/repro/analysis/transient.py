"""Counting ASes that experience transient routing problems.

The paper's metric (section 6.2): after a routing event, an AS
"experiences transient problems" if at any instant during convergence
the data plane from it toward the destination loops or blackholes —
given that it had working connectivity before the event.  We replay the
forwarding-change trace and classify every eligible AS at every instant
at which any control-plane state changed, including the instant of the
event itself.

The scan is *incremental*: the plane compiles the snapshot onto its
successor table (:class:`repro.forwarding.walk.SuccessorTable`), each
instant's changed keys are fed to the table, and the table reports
exactly the sources whose packet fate changed — a changed key only
counts when what walks can observe of it (e.g. a route's next hop)
actually changed.  On Internet-like topologies a convergence instant
typically touches one or two ASes' forwarding state, turning the
per-instant cost from O(all eligible walks) into O(affected walks).
:func:`_reference_analyze_transient_problems` keeps the full-rescan
implementation for equivalence tests.

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
express.  :func:`_reference_analyze_episode_transient_problems` is its
brute-force equivalence twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.forwarding.walk import SuccessorTable, WalkClassifier
from repro.sim.tracing import ForwardingTrace
from repro.types import ASN, Link, Outcome


@dataclass
class TransientReport:
    """Result of one scenario's transient-problem analysis."""

    #: ASes that were delivered pre-event (the eligible population).
    eligible: Set[ASN] = field(default_factory=set)
    #: Eligible ASes that looped or blackholed at some instant but
    #: regained connectivity by convergence (*transient* problems, the
    #: paper's metric).
    affected: Set[ASN] = field(default_factory=set)
    #: Eligible ASes left without connectivity even after convergence:
    #: the event partitioned them (policy-wise) from the destination.
    #: No protocol can help these, so they are not "transient".
    permanently_unreachable: Set[ASN] = field(default_factory=set)
    #: Eligible ASes that ever looped.
    looped: Set[ASN] = field(default_factory=set)
    #: Eligible ASes that ever blackholed.
    blackholed: Set[ASN] = field(default_factory=set)
    #: (time, cumulative #affected) series.
    timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, #currently-problematic) series — the data-plane health.
    problem_timeline: List[Tuple[float, int]] = field(default_factory=list)

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


def analyze_transient_problems(
    trace: ForwardingTrace,
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    failed_links: FrozenSet[Link] = frozenset(),
    failed_ases: FrozenSet[ASN] = frozenset(),
    min_duration: float = 0.0,
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

    ``min_duration`` (optional) filters micro-outages: an AS counts as
    affected only if some continuous problem interval lasts at least
    this many simulated seconds.  The default (0.0) counts a problem at
    any instant, which is the strictest reading of the paper's metric.
    """
    segment = EpisodeSegment(
        trace=trace,
        failed_links=failed_links,
        failed_ases=failed_ases,
        start_time=trace.changes[0].time if trace.changes else 0.0,
    )
    return analyze_episode_transient_problems(
        [segment], initial_state, plane, ases, min_duration=min_duration
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
    ``failed_ases_at_start`` holds the ASes that were (still) failed
    when the phase's events fired — a router restored by this very
    phase was down at its start, so it cannot be a *victim* of the
    phase and is excluded from the phase report's eligibility (its
    frozen pre-restore state would otherwise classify as connectivity
    it never had).
    """

    trace: ForwardingTrace
    failed_links: FrozenSet[Link]
    failed_ases: FrozenSet[ASN]
    start_time: float
    failed_ases_at_start: FrozenSet[ASN] = frozenset()


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
    unreachability.  ``problem_since`` is exactly the eligible sources
    not delivered at the last scan, so nothing here costs O(eligible).
    A phase's tracker lives for one segment, from after its boundary
    scan (an episode-level concept the standalone per-phase semantics
    never see); the episode-wide tracker observes every scan of every
    segment, which is how its intervals span phase boundaries.
    """

    __slots__ = ("report", "min_duration", "seeded", "problem_since")

    def __init__(self, report: TransientReport, min_duration: float) -> None:
        self.report = report
        self.min_duration = min_duration
        self.seeded = False
        self.problem_since: Dict[ASN, Tuple[float, Set[Outcome]]] = {}

    def _seed(self, table: SuccessorTable, time: float) -> None:
        """Open an interval per eligible source the table fails."""
        eligible = self.report.eligible
        asns = table.asns
        source_outcome = table.source_outcome
        problem_since = self.problem_since
        for i in table.undelivered:
            asn = asns[i]
            if asn in eligible:
                problem_since[asn] = (time, {source_outcome[i]})
        self.seeded = True

    def _close_interval(self, asn: ASN, end: float) -> None:
        start, kinds = self.problem_since.pop(asn)
        if end - start < self.min_duration:
            return
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
        if not self.seeded:
            self._seed(table, time)
        else:
            eligible = self.report.eligible
            delivered = Outcome.DELIVERED
            for asn, outcome in transitions:
                if asn not in eligible:
                    continue
                if outcome is delivered:
                    if asn in problem_since:
                        self._close_interval(asn, time)
                else:
                    entry = problem_since.get(asn)
                    if entry is None:
                        problem_since[asn] = (time, {outcome})
                    else:
                        entry[1].add(outcome)
        report = self.report
        report.timeline.append((time, len(report.affected)))
        report.problem_timeline.append((time, len(problem_since)))

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
        report.permanently_unreachable.update(self.problem_since)
        report.affected -= report.permanently_unreachable
        report.looped -= report.permanently_unreachable
        report.blackholed -= report.permanently_unreachable
        return report


class _IncrementalScan:
    """The incremental scan engine of the analyzer.

    Owns the episode's one state dict (the analyzer replays every
    segment's trace onto it in place) and the plane's successor table
    over it — built failure-free over the snapshot, then *patched*
    across every boundary (``table.apply_boundary``: the failure-set
    delta, invalidating only the walks it touches) and fed each
    scanned instant's changed keys.  Every scan's outcome
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

    def scan(self, time: float, changed_keys: Optional[set]) -> None:
        table = self.table
        if changed_keys:
            update = table.update
            state_get = self.state.get
            for key in changed_keys:
                update(key, state_get(key))
        transitions = table.collect_transitions()
        if self.held:
            held, self.held = self.held, {}
            held.update(transitions)
            transitions = held.items()
        if self.main is not None:
            self.main.observe(table, transitions, time)
        if self.phase is not None:
            self.phase.observe(table, transitions, time)


def _episode_eligibility(
    plane: WalkClassifier,
    segments: Sequence[EpisodeSegment],
    initial_state: Dict,
    all_ases: List[ASN],
) -> Set[ASN]:
    """Pre-episode connectivity baseline minus every ever-failed AS.

    The reference twin's copy of the rule: the baseline classification
    ignores failure sets (pre-event connectivity — the post-initial-
    convergence control plane has already routed around any pre-failed
    links), and ASes that are themselves failed at any point of the
    episode cannot "experience" transient problems.
    """
    baseline = plane.classify_batch(initial_state, all_ases)
    ever_failed: Set[ASN] = set()
    for segment in segments:
        ever_failed |= segment.failed_ases
        ever_failed |= segment.failed_ases_at_start
    return {
        asn for asn in all_ases if baseline.get(asn) is Outcome.DELIVERED
    } - ever_failed


def analyze_episode_transient_problems(
    segments: Sequence[EpisodeSegment],
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    min_duration: float = 0.0,
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
    # cannot "experience" problems.
    ever_failed: Set[ASN] = set()
    for segment in segments:
        ever_failed |= segment.failed_ases
        ever_failed |= segment.failed_ases_at_start
    report = TransientReport(eligible=delivered - ever_failed)
    if report.eligible:
        engine.main = _PhaseTracker(report, min_duration)

    no_failures: FrozenSet = frozenset()
    phases: List[TransientReport] = []
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
            engine.scan(segment.start_time, None)
        if len(segments) == 1:
            phase_report = report
        else:
            # A router that was down when this phase fired cannot be a
            # victim of the phase (its frozen pre-restore state is not
            # real connectivity).
            phase_report = TransientReport(
                eligible=delivered
                - segment.failed_ases
                - segment.failed_ases_at_start
            )
            if phase_report.eligible:
                engine.phase = _PhaseTracker(phase_report, min_duration)
        for time, _, changed in segment.trace.replay_onto(state):
            engine.scan(time, changed)
        if engine.phase is not None:
            engine.phase.finalize(table)
            engine.phase = None
        phases.append(phase_report)

    if engine.main is not None:
        engine.main.finalize(table)
    return EpisodeTransientReport(overall=report, phases=phases)


def _reference_analyze_episode_transient_problems(
    segments: Sequence[EpisodeSegment],
    initial_states: Sequence[Dict],
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    min_duration: float = 0.0,
) -> EpisodeTransientReport:
    """Full-rescan episode analyzer (the brute-force equivalence twin).

    Classifies every eligible AS at every instant of every segment via
    :meth:`WalkClassifier.classify`, with the identical boundary-scan
    and interval-bridging semantics as the incremental implementation.
    Brute force in its input too: one snapshot *per segment*, which
    the test-side collector photographs off the live network, so no
    phase's starting state is derived from the trace under check.
    """
    segments = list(segments)
    assert len(initial_states) == len(segments)
    if not segments:
        return EpisodeTransientReport(overall=TransientReport())
    all_ases = list(ases)
    phases = [
        _reference_analyze_transient_problems(
            segment.trace,
            initial_state,
            plane,
            all_ases,
            failed_links=segment.failed_links,
            failed_ases=segment.failed_ases,
            min_duration=min_duration,
            exclude_sources=segment.failed_ases_at_start,
        )
        for segment, initial_state in zip(segments, initial_states)
    ]
    report = TransientReport()
    report.eligible = _episode_eligibility(
        plane, segments, initial_states[0], all_ases
    )
    if not report.eligible:
        return EpisodeTransientReport(overall=report, phases=phases)
    eligible = report.eligible

    problem_since: Dict[ASN, Tuple[float, Set[Outcome]]] = {}
    outcome_of: Dict[ASN, Outcome] = {}
    last_time = 0.0
    scanned_any = False

    def close_interval(asn: ASN, end: float) -> None:
        start, kinds = problem_since.pop(asn)
        if end - start < min_duration:
            return
        report.affected.add(asn)
        if Outcome.LOOP in kinds:
            report.looped.add(asn)
        if Outcome.BLACKHOLE in kinds:
            report.blackholed.add(asn)

    def scan(segment: EpisodeSegment, state: Dict, time: float) -> None:
        nonlocal last_time, scanned_any
        outcomes = plane.classify(
            state,
            eligible,
            failed_links=segment.failed_links,
            failed_ases=segment.failed_ases,
        )
        problems_now = 0
        for asn in eligible:
            outcome = outcomes.get(asn, Outcome.BLACKHOLE)
            outcome_of[asn] = outcome
            if outcome is Outcome.DELIVERED:
                if asn in problem_since:
                    close_interval(asn, time)
                continue
            problems_now += 1
            if asn not in problem_since:
                problem_since[asn] = (time, set())
            problem_since[asn][1].add(outcome)
        report.timeline.append((time, len(report.affected)))
        report.problem_timeline.append((time, problems_now))
        last_time = time
        scanned_any = True

    final_state: Dict = {}
    for index, (segment, initial_state) in enumerate(
        zip(segments, initial_states)
    ):
        changes = segment.trace.changes
        if index > 0 and (not changes or changes[0].time > segment.start_time):
            scan(segment, dict(initial_state), segment.start_time)
        final_state = dict(initial_state)
        for time, state in segment.trace.replay(initial_state):
            scan(segment, state, time)
            final_state = state

    last = segments[-1]
    if not scanned_any:
        final_outcomes = plane.classify(
            final_state,
            eligible,
            failed_links=last.failed_links,
            failed_ases=last.failed_ases,
        )
        outcome_of.update(
            (asn, final_outcomes.get(asn, Outcome.BLACKHOLE)) for asn in eligible
        )
    for asn in eligible:
        if outcome_of.get(asn, Outcome.BLACKHOLE) is not Outcome.DELIVERED:
            report.permanently_unreachable.add(asn)
            problem_since.pop(asn, None)
    for asn in list(problem_since):
        close_interval(asn, last_time)
    report.affected -= report.permanently_unreachable
    report.looped -= report.permanently_unreachable
    report.blackholed -= report.permanently_unreachable
    return EpisodeTransientReport(overall=report, phases=phases)


def _reference_analyze_transient_problems(
    trace: ForwardingTrace,
    initial_state: Dict,
    plane: WalkClassifier,
    ases: Iterable[ASN],
    *,
    failed_links: FrozenSet[Link] = frozenset(),
    failed_ases: FrozenSet[ASN] = frozenset(),
    min_duration: float = 0.0,
    exclude_sources: FrozenSet[ASN] = frozenset(),
) -> TransientReport:
    """Full-rescan analyzer (pre-optimization behavior).

    Re-classifies every eligible AS at every instant.  Kept as the
    brute-force reference the incremental implementation is pinned to
    in the equivalence tests.  ``exclude_sources`` removes ASes from
    eligibility without failing them for walk classification — the
    episode twin passes the routers that were down when a phase fired
    (not its victims, but traffic may flow *through* them once
    restored).
    """
    report = TransientReport()
    all_ases = list(ases)

    baseline = plane.classify(initial_state, all_ases)
    report.eligible = (
        {asn for asn in all_ases if baseline.get(asn) is Outcome.DELIVERED}
        - set(failed_ases)
        - set(exclude_sources)
    )
    if not report.eligible:
        return report

    eligible = report.eligible

    problem_since: Dict[ASN, Tuple[float, Set[Outcome]]] = {}
    last_time = 0.0

    def close_interval(asn: ASN, end: float) -> None:
        start, kinds = problem_since.pop(asn)
        if end - start < min_duration:
            return
        report.affected.add(asn)
        if Outcome.LOOP in kinds:
            report.looped.add(asn)
        if Outcome.BLACKHOLE in kinds:
            report.blackholed.add(asn)

    def scan(state: Dict, time: float) -> None:
        outcomes = plane.classify(
            state, eligible, failed_links=failed_links, failed_ases=failed_ases
        )
        problems_now = 0
        for asn in eligible:
            outcome = outcomes.get(asn, Outcome.BLACKHOLE)
            if outcome is Outcome.DELIVERED:
                if asn in problem_since:
                    close_interval(asn, time)
                continue
            problems_now += 1
            if asn not in problem_since:
                problem_since[asn] = (time, set())
            problem_since[asn][1].add(outcome)
        report.timeline.append((time, len(report.affected)))
        report.problem_timeline.append((time, problems_now))

    final_state = dict(initial_state)
    for time, state in trace.replay(initial_state):
        scan(state, time)
        final_state = state
        last_time = time

    final_outcomes = plane.classify(
        final_state, eligible, failed_links=failed_links, failed_ases=failed_ases
    )
    for asn in eligible:
        if final_outcomes.get(asn, Outcome.BLACKHOLE) is not Outcome.DELIVERED:
            report.permanently_unreachable.add(asn)
            problem_since.pop(asn, None)
    for asn in list(problem_since):
        close_interval(asn, last_time)
    report.affected -= report.permanently_unreachable
    report.looped -= report.permanently_unreachable
    report.blackholed -= report.permanently_unreachable
    return report
