"""Run one failure episode under one protocol.

:func:`run_episode` is the one execution path.  **When events apply**:
``Episode.pre_failed_links`` are failed before initial convergence;
each episode step is then *scheduled* on the engine
(:meth:`repro.sim.engine.Engine.post_at`) at its absolute offset from
the post-convergence instant and fires mid-run as an ordinary event —
ordered against protocol timers by the engine's total ``(time,
insertion-seq)`` order — before a single drain runs the whole episode
to quiescence.  The paper's single-instant workloads (section 6.2) are
one-phase episodes: one injector at offset ``0.0`` applies all their
events synchronously, before any protocol reaction.  The network is
photographed (``forwarding_state()``, a walk over every speaker) once
per episode, by the first injector; the trace says the rest, so a
phase costs what it changed, however many ASes stood still.

The two R-BGP variants (``rbgp`` / ``rbgp-norci``) differ only in how
they react to root-cause information, which cannot exist before the
first failure — so their *initial convergence* is one and the same
computation.  The runner exploits that: after starting one variant it
forks the drained network (:meth:`repro.bgp.network.BGPNetwork.fork`:
its own engine, transport and speaker state, the topology and every
immutable route shared) and parks the fork for the twin, which flips
the ``rci`` flag instead of re-simulating an identical start.  The
cache key is the complete pre-convergence input — graph identity (a
graph is frozen by the first read, so identity is content),
destination, seed, and the episode's ``pre_failed_links`` — so runs
whose starts could differ never share; sharing is additionally gated on
:meth:`repro.rbgp.network.RBGPNetwork.start_is_rci_invariant` — a
per-speaker runtime proof that no RCI-sensitive code path was reached
— and falls back to a fresh start otherwise, so results are
byte-identical either way (the golden determinism tests pin this).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.transient import (
    EpisodeSegment,
    TransientReport,
    analyze_episode_transient_problems,
    # Unused here: bench/tracing.py:TARGETS (frozen) resolves this name
    # as an attribute of this module.  The next [benchmark] PR drops
    # that target, and this import with it.
    analyze_transient_problems,  # noqa: F401
)
from repro.bgp.network import BGPNetwork
from repro.errors import ConfigurationError
from repro.forwarding.walk import WalkClassifier
from repro.rbgp.network import RBGPNetwork
from repro.experiments.scenarios import Episode, EpisodeEvent, EventKind
from repro.sim.tracing import ForwardingTrace
from repro.stamp.network import STAMPNetwork
from repro.topology.generators import InternetTopologyConfig
from repro.topology.graph import ASGraph
from repro.types import Link, normalize_link

#: Protocols compared in Figures 2-3, in the paper's display order.
PROTOCOLS: Tuple[str, ...] = ("bgp", "rbgp-norci", "rbgp", "stamp")

#: Human-readable labels matching the paper's legends.
PROTOCOL_LABELS: Dict[str, str] = {
    "bgp": "BGP",
    "rbgp-norci": "R-BGP without RCI",
    "rbgp": "R-BGP",
    "stamp": "STAMP",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """What a figure-reproduction experiment computes: scale and seeding.

    The paper simulates the full measured AS graph (~27k ASes) over 100
    instances; defaults here are laptop-sized (README.md, "Real
    topologies", shows how to swap a measured graph in) and every knob
    is adjustable.  How the grid executes (workers, retries, timeouts,
    the ledger) is not said here: those are the fields of
    :class:`~repro.experiments.parallel.ParallelRunner`, and none of
    them changes a number.
    """

    seed: int = 0
    topology: InternetTopologyConfig = field(
        default_factory=InternetTopologyConfig
    )
    n_instances: int = 20
    protocols: Tuple[str, ...] = PROTOCOLS

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ConfigurationError(
                f"n_instances must be >= 1, got {self.n_instances}"
            )
        unknown = [p for p in self.protocols if p not in PROTOCOL_LABELS]
        if unknown:
            raise ConfigurationError(
                f"unknown protocol(s) {', '.join(map(repr, unknown))}; "
                f"choose from {', '.join(PROTOCOL_LABELS)}"
            )


def derive_run_seed(seed: int, kind: str, instance: int) -> int:
    """Per-run simulation seed, disjoint across experiment kinds.

    Hashes the same ``f"{seed}:{kind}:{instance}"`` scheme the scenario
    RNGs are seeded with (the former ``seed * 1_000 + instance`` stride
    collided across kinds and overflowed at ``n_instances >= 1000``).
    """
    digest = hashlib.sha256(f"{seed}:{kind}:{instance}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_network(
    protocol: str,
    graph: ASGraph,
    destination,
    *,
    seed: int = 0,
) -> Tuple[BGPNetwork, WalkClassifier]:
    """Instantiate the network for a protocol, and the data plane it names."""
    if protocol == "bgp":
        network = BGPNetwork(graph, destination, seed=seed)
    elif protocol in _RBGP_PROTOCOLS:
        network = RBGPNetwork(
            graph, destination, seed=seed, rci=(protocol == "rbgp")
        )
    elif protocol == "stamp":
        network = STAMPNetwork(graph, destination, seed=seed)
    else:
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    return network, network.data_plane()


#: Single-slot cache for R-BGP twin-start sharing:
#: (graph, destination, seed, pre-failed links) ->
#: (fork of the started network, initial convergence time).  One slot
#: suffices because the scheduler runs twins back to back in one
#: process: in-process grids by their (instance, protocol) order,
#: pooled ones by the dispatch rule (``Supervisor._next_eligible``
#: hands a worker the twin of the unit it ran last) — without that rule
#: a pool shared almost nothing, since the twin started elsewhere while
#: the first was still running.  One slot also bounds memory to one
#: live network, parked while the first twin runs its episode (the
#: graph and every route are shared with the original).  Runs pause
#: the cyclic collector, so a parked fork is disposed whenever it
#: leaves the slot unused: a new shareable start replaces it, and grid
#: runners clear it when a figure completes (see
#: :func:`clear_twin_start_cache`), so a fork whose twin never ran
#: does not outlive its figure.
_RBGP_START_SLOT: Optional[Tuple[Tuple, RBGPNetwork, float]] = None


def _park_twin_start(slot: Optional[Tuple[Tuple, RBGPNetwork, float]]) -> None:
    """Fill (or empty) the twin-start slot, disposing the fork it held."""
    global _RBGP_START_SLOT
    parked, _RBGP_START_SLOT = _RBGP_START_SLOT, slot
    if parked is not None:
        parked[1].dispose()


def clear_twin_start_cache() -> None:
    """Dispose of any parked twin start (end of a figure grid)."""
    _park_twin_start(None)


#: The two protocols that share a start; the supervisor pairs a grid's
#: units by it (``supervisor._twin_indices``).
_RBGP_PROTOCOLS = frozenset({"rbgp", "rbgp-norci"})


def _rbgp_start_key(
    graph: ASGraph, destination, seed: int, pre_failed: Tuple[Link, ...]
) -> Tuple:
    """Twin-start cache key: the complete pre-convergence input.

    ``pre_failed`` is the normalized, sorted tuple of links that start
    out failed (the episode's ``pre_failed_links``).  Everything
    applied *after* initial convergence (the episode's scheduled
    steps) cannot influence the snapshot and is deliberately excluded;
    everything that shapes the start is included, so two runs whose
    initial convergence could differ never share a snapshot.  The graph
    counts by identity: building the network read it, and so froze it,
    before any snapshot is stored under the key.
    """
    return (graph, destination, seed, pre_failed)


def _normalized_pre_failed(links) -> Tuple[Link, ...]:
    return tuple(sorted(normalize_link(a, b) for a, b in links))


def _acquire_started_network(
    graph: ASGraph,
    destination,
    protocol: str,
    seed: int,
    pre_failed_links,
):
    """Build — or take from the twin-start slot — a started network.

    ``pre_failed_links`` start out failed before initial convergence
    (in the caller's order; the cache key uses the normalized sorted
    tuple).  Returns ``(network, plane, initial_convergence_time)``
    with the trace already cleared of initial churn.
    """
    global _RBGP_START_SLOT
    pre_failed = _normalized_pre_failed(pre_failed_links)
    network = None
    plane = None
    initial_convergence_time = 0.0
    shareable = protocol in _RBGP_PROTOCOLS
    if shareable:
        key = _rbgp_start_key(graph, destination, seed, pre_failed)
        slot = _RBGP_START_SLOT
        if (
            slot is not None
            and slot[0][0] is key[0]
            and slot[0][1:] == key[1:]
        ):
            _RBGP_START_SLOT = None  # consume: the twin runs once
            _, network, initial_convergence_time = slot
            network.set_rci(protocol == "rbgp")
            plane = network.data_plane()
    if network is None:
        network, plane = build_network(protocol, graph, destination, seed=seed)
        # Links that will *recover* during the run start out failed.
        for a, b in pre_failed_links:
            network.transport.fail_link(a, b)
        initial_convergence_time = network.start()
        if shareable and network.start_is_rci_invariant():
            _park_twin_start((key, network.fork(), initial_convergence_time))
    return network, plane, initial_convergence_time


@dataclass
class EpisodePhase:
    """One injection instant of an episode run and its attribution."""

    #: Phase index (position among the episode's distinct instants).
    index: int
    #: Indices into ``episode.steps`` applied at this instant.
    step_indices: Tuple[int, ...]
    #: Absolute simulated time the events were injected.
    time: float
    events: Tuple[EpisodeEvent, ...]
    #: Phase-scoped transient analysis (eligibility re-evaluated at
    #: the phase's start), so disruption is attributable per event.
    report: TransientReport


@dataclass
class EpisodeRun:
    """Outcome of one (episode, protocol) simulation.

    The campaign metrics (``affected``, ``updates``,
    ``disruption_duration``, ...) are computed from the episode-wide
    overall report; the per-phase breakdown is under :attr:`phases`.
    """

    protocol: str
    episode: Episode
    #: Episode-wide report (problem intervals span phase boundaries).
    report: TransientReport
    phases: Tuple[EpisodePhase, ...]
    #: Simulated seconds from the post-initial-convergence instant to
    #: final quiescence (includes any idle offset before the first
    #: step; the packaged builders all start at offset 0.0).
    convergence_time: float
    announcements: int
    withdrawals: int
    initial_updates: int = 0
    initial_convergence_time: float = 0.0

    @property
    def affected(self) -> int:
        """ASes with transient problems at any point of the episode."""
        return self.report.affected_count

    @property
    def updates(self) -> int:
        """Update messages sent across all phases of the episode."""
        return self.announcements + self.withdrawals

    @property
    def disruption_duration(self) -> float:
        """Seconds the data plane kept dropping packets (all phases)."""
        return self.report.disruption_duration


def _apply_episode_event(network, event: EpisodeEvent) -> None:
    """Apply one episode event to a network (any protocol plane)."""
    kind = event.kind
    if kind is EventKind.LINK_FAIL:
        network.fail_link(*event.link)
    elif kind is EventKind.LINK_RESTORE:
        network.restore_link(*event.link)
    elif kind is EventKind.AS_FAIL:
        network.fail_as(event.asn)
    else:  # pragma: no cover - exhaustive over EventKind
        raise ConfigurationError(f"unknown episode event kind {kind!r}")


def collect_episode_segments(
    network, episode: Episode
) -> Tuple[List[EpisodeSegment], Dict, float]:
    """Drive one started network through an episode; return its phases.

    Schedules one injector per distinct step offset (via the engine's
    handle-free ``post_at`` at ``now + offset``), drains the run to
    quiescence, and slices the trace into per-phase
    :class:`~repro.analysis.transient.EpisodeSegment` values.  Only
    the first injector snapshots the network (before applying its
    events); every injector records its instant, its place in the
    trace and the failure sets around it.  Shared by
    :func:`run_episode` and the perf bench (which needs the segments
    without the analysis).  Returns ``(segments, initial_state,
    convergence_time)``; the first two are the analyzer's input.
    """
    engine = network.engine
    trace = network.trace
    transport = network.transport
    base = engine.now
    initial_state: Dict = {}
    #: Per-phase marks captured by the injectors at fire time: (time,
    #: trace start index, post-injection failed links, post-injection
    #: failed ASes).
    marks: List[Tuple[float, int, frozenset, frozenset]] = []

    def inject(events: Tuple[EpisodeEvent, ...]) -> None:
        time = engine.now
        trace_start = len(trace.changes)
        for event in events:
            _apply_episode_event(network, event)
        marks.append(
            (
                time,
                trace_start,
                frozenset(transport.failed_links),
                frozenset(transport.failed_ases),
            )
        )

    def inject_first(events: Tuple[EpisodeEvent, ...]) -> None:
        nonlocal initial_state
        initial_state = network.forwarding_state()
        inject(events)

    injector = inject_first
    for offset, _, events in episode.instants():
        engine.post_at(base + offset, functools.partial(injector, events))
        injector = inject
    convergence_time = network.run_to_convergence()

    segments: List[EpisodeSegment] = []
    for k, (time, trace_start, failed_links, failed_ases) in enumerate(marks):
        trace_end = marks[k + 1][1] if k + 1 < len(marks) else len(trace.changes)
        segments.append(
            EpisodeSegment(
                trace=ForwardingTrace(changes=trace.changes[trace_start:trace_end]),
                failed_links=failed_links,
                failed_ases=failed_ases,
                start_time=time,
            )
        )
    return segments, initial_state, convergence_time


def run_episode(
    graph: ASGraph,
    episode: Episode,
    protocol: str,
    *,
    seed: int = 0,
) -> EpisodeRun:
    """Simulate one timed episode under one protocol; analyze per phase.

    Exact event timing: ``episode.pre_failed_links`` are failed before
    the network starts; after initial convergence (trace cleared), one
    injector per distinct step offset is scheduled via
    :meth:`repro.sim.engine.Engine.post_at` at ``converged_time +
    offset``.  A single engine drain then runs the whole episode:
    injectors fire mid-run as ordinary events (the first one
    snapshots the pre-injection forwarding state) and apply their
    instant's events synchronously (in step order).  Because
    injectors are scheduled before any post-convergence protocol
    activity, an injection tied with a protocol timer at the exact
    same instant fires *first* (lower insertion seq) — the one
    scheduling rule episode authors need to know; see
    ``docs/scenarios.md``.

    The R-BGP twin-start slot is keyed on the episode's
    pre-convergence input (destination, seed, ``pre_failed_links``),
    so two different episodes share a start only when their initial
    convergence is provably the same computation.
    """
    network, plane, initial_convergence_time = _acquire_started_network(
        graph,
        episode.destination,
        protocol,
        seed,
        episode.pre_failed_links,
    )

    announcements_before = network.stats.announcements
    withdrawals_before = network.stats.withdrawals

    segments, initial_state, convergence_time = collect_episode_segments(
        network, episode
    )
    instants = episode.instants()
    analysis = analyze_episode_transient_problems(
        segments, initial_state, plane, graph.ases
    )
    phases = tuple(
        EpisodePhase(
            index=k,
            step_indices=instants[k][1],
            time=segments[k].start_time,
            events=instants[k][2],
            report=analysis.phases[k],
        )
        for k in range(len(segments))
    )

    announcements_after = network.stats.announcements
    withdrawals_after = network.stats.withdrawals
    # The run is fully extracted; break the network's cycles so its
    # memory frees by refcount even while cyclic GC is paused.
    network.dispose()
    return EpisodeRun(
        protocol=protocol,
        episode=episode,
        report=analysis.overall,
        phases=phases,
        convergence_time=convergence_time,
        announcements=announcements_after - announcements_before,
        withdrawals=withdrawals_after - withdrawals_before,
        initial_updates=announcements_before + withdrawals_before,
        initial_convergence_time=initial_convergence_time,
    )
