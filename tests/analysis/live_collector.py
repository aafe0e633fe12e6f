"""Test-side episode collector: the live network, photographed per phase.

The runner takes **one** snapshot per episode and trusts the trace for
everything after it.  This collector is what checks that trust: ahead
of each injector it schedules its own ``engine.post_at`` snapshot at
the same instant — scheduled *before*
:func:`~repro.experiments.runner.collect_episode_segments` schedules
the injectors, so it holds the lower insertion sequence number and
fires first (``docs/scenarios.md``, rule 1) — and photographs the
network once more at quiescence.  The snapshots are what the run
*was*, not what the trace says it was:

* :func:`assert_trace_complete` replays the runner's one snapshot
  through the segments' traces and compares it with the live
  photograph at every boundary and at the end — an unrecorded
  forwarding change fails it;
* the per-segment photographs feed
  :func:`~repro.analysis.transient._reference_analyze_episode_transient_problems`,
  so the brute-force twin never derives a phase's starting state from
  the trace it is checking.

(The extra engine events shift every later insertion number by the
same amount and touch no speaker, so the run is otherwise the one the
runner would have driven.)

Every stop is also handed to :func:`check_quiescent`, the first slice
of the protocol-invariant checker (ROADMAP item 1): it reads the live
speakers, never the trace, and computes what it checks by itself.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.analysis.transient import (
    EpisodeSegment,
    _reference_analyze_episode_transient_problems,
    analyze_episode_transient_problems,
)
from repro.bgp.decision import route_sort_key
from repro.bgp.ribs import Route
from repro.experiments import runner as runner_mod
from repro.experiments.runner import collect_episode_segments
from repro.rbgp.network import RBGPNetwork
from repro.stamp.network import STAMPNetwork

#: How many times each assertion of :func:`check_quiescent` was
#: evaluated in this process, by name (``docs/measurements/`` reports
#: the totals of a tier-1 run).
TALLY: collections.Counter = collections.Counter()


@dataclass
class LiveEpisode:
    """One driven episode: the runner's view plus the live photographs."""

    segments: List[EpisodeSegment]
    #: The runner's one snapshot (first injection instant).
    initial_state: Dict
    #: ``network.forwarding_state()`` just ahead of each injector.
    live_states: List[Dict]
    #: ``network.forwarding_state()`` after the drain.
    final_state: Dict


def collect_live(network, episode) -> LiveEpisode:
    """Drive ``network`` through ``episode`` with a camera per phase."""
    engine = network.engine
    base = engine.now
    live_states: List[Dict] = []
    last_stop = check_quiescent(network, not_before=0.0)

    def camera() -> None:
        nonlocal last_stop
        live_states.append(network.forwarding_state())
        # Later cameras, the injectors and (in a storm) the previous
        # phase's reaction are still queued at a boundary.
        last_stop = check_quiescent(
            network, not_before=last_stop, drained=False
        )

    for offset, _, _ in episode.instants():
        engine.post_at(base + offset, camera)
    segments, initial_state, _ = collect_episode_segments(network, episode)
    assert len(live_states) == len(segments)
    check_quiescent(network, not_before=last_stop)
    return LiveEpisode(
        segments, initial_state, live_states, network.forwarding_state()
    )


def check_quiescent(network, *, not_before: float, drained: bool = True) -> float:
    """Protocol invariants at a stop between two engine events.

    Five assertions so far; returns the clock for the next stop's
    ``not_before``:

    1. the clock has not run backwards since the previous stop;
    2. nothing is queued — wherever the run has ``drained`` (a boundary
       inside an episode still holds its later injectors);
    3. every live R-BGP speaker advertises, to its primary next hop,
       the most link-disjoint alternate — an argmin computed here from
       the Adj-RIB-In alone, not by asking the speaker;
    4. wherever the run has ``drained``, what every live speaker last
       told each session peer is what it would tell it now (Adj-RIB-Out
       == ``export_for``; inside an episode an armed MRAI timer or a
       deferred recolor withdrawal may still owe a peer an update);
    5. no message is in flight on a channel whose session is down — a
       failure condemns what was queued, and nothing is queued after it.

    Asking a speaker what it would export must not move the network: a
    STAMP gate that had to *choose* a Lock target here (a draw from the
    engine's generator) was left unsettled by the run.
    """
    engine = network.engine
    transport = network.transport
    assert engine.now >= not_before, (engine.now, not_before)
    if drained:
        assert engine.pending() == 0, f"{engine.pending()} events still queued"
    if isinstance(network, RBGPNetwork):
        for asn, speaker in network.speakers.items():
            if not transport.as_is_up(asn):
                continue
            if speaker.best is None and speaker.rci:
                # Documented retention: with RCI a routeless speaker
                # keeps its last failover advertisement alive.
                continue
            expected = _most_disjoint_alternate(network.graph, speaker)
            TALLY["failover is the most disjoint alternate"] += 1
            assert speaker._failover_sent == expected, (
                f"AS {asn} (best {speaker.best}) advertises failover "
                f"{speaker._failover_sent}, the most disjoint is {expected}"
            )
    if drained:
        generator = engine.rng.getstate()
        for asn, speaker in _live_speakers(network):
            for peer in speaker.sorted_sessions():
                told, owed = speaker._advertised.get(peer), speaker.export_for(peer)
                TALLY["Adj-RIB-Out is export_for"] += 1
                assert told == owed, (
                    f"AS {asn} ({speaker.tag}) last told {peer} {told}, "
                    f"it would now export {owed}"
                )
        assert engine.rng.getstate() == generator, "an export gate drew"
    for (src, dst, tag), channel in transport._channels.items():
        in_flight = len(channel.queue) - channel.pending_losses
        TALLY["nothing in flight over a dead session"] += 1
        assert not in_flight or transport.link_is_up(src, dst), (
            f"{in_flight} message(s) in flight {src}->{dst} ({tag}) "
            f"over a session that is down"
        )
    return engine.now


def _live_speakers(network) -> Iterator[Tuple[int, object]]:
    """``(asn, speaker)`` of every routing process of every live AS."""
    if isinstance(network, STAMPNetwork):
        processes = (
            (asn, process)
            for asn, node in network.nodes.items()
            for process in (node.red, node.blue)
        )
    else:
        processes = network.speakers.items()
    for asn, speaker in processes:
        if network.transport.as_is_up(asn):
            yield asn, speaker


def _most_disjoint_alternate(graph, speaker):
    """``(primary next hop, path)`` R-BGP's rule picks, or ``None``.

    Fewest links shared with the primary path, ties by the decision
    order (from the graph, not from the keys the speaker cached);
    routes learned from, or passing through, the primary next hop are
    of no use to it.
    """
    best = speaker.best
    if best is None or best.is_origin:
        return None
    target = best.learned_from

    def links(path):
        hops = (speaker.asn,) + path
        return {frozenset(hop) for hop in zip(hops, hops[1:])}

    primary = links(best.path)
    chosen = min(
        (
            route
            for route in speaker.adj_rib_in.routes()
            if route.learned_from != target and target not in route.path
        ),
        key=lambda route: (
            len(primary & links(route.path)),
            route_sort_key(
                graph, speaker.asn, Route(route.path, route.learned_from)
            ),
        ),
        default=None,
    )
    return (target, chosen.path) if chosen is not None else None


def run_live(graph, episode, protocol: str, seed: int = 7):
    """Start a network the runner's way, then :func:`collect_live`.

    Returns ``(live, plane)``.
    """
    network, plane, _ = runner_mod._acquire_started_network(
        graph, episode.destination, protocol, seed, None,
        episode.pre_failed_links,
    )
    return collect_live(network, episode), plane


def assert_trace_complete(live: LiveEpisode) -> None:
    """The one snapshot + the trace reproduce every live photograph."""
    state = dict(live.initial_state)
    for index, segment in enumerate(live.segments):
        assert state == live.live_states[index], (
            f"replayed state differs from the live network at boundary "
            f"{index}: {_diff(state, live.live_states[index])}"
        )
        for _ in segment.trace.replay_onto(state):
            pass
    assert state == live.final_state, (
        f"replayed state differs from the live network at quiescence: "
        f"{_diff(state, live.final_state)}"
    )


def _diff(replayed: Dict, photographed: Dict) -> Dict:
    """``key -> (replayed, live)`` where the two disagree."""
    absent = object()
    return {
        key: (replayed.get(key, "<absent>"), photographed.get(key, "<absent>"))
        for key in replayed.keys() | photographed.keys()
        if replayed.get(key, absent) != photographed.get(key, absent)
    }


def report_fields(report):
    return (
        report.eligible,
        report.affected,
        report.looped,
        report.blackholed,
        report.permanently_unreachable,
        report.timeline,
        report.problem_timeline,
    )


def assert_matches_reference(segments, initial_states, plane, ases):
    """Incremental (one snapshot) == brute force (one per segment).

    ``initial_states`` holds one snapshot per segment; the incremental
    analyzer gets the first one only.
    """
    incremental = analyze_episode_transient_problems(
        segments, initial_states[0], plane, ases
    )
    reference = _reference_analyze_episode_transient_problems(
        segments, initial_states, plane, ases
    )
    assert report_fields(incremental.overall) == report_fields(
        reference.overall
    )
    assert len(incremental.phases) == len(reference.phases)
    for index, (got, want) in enumerate(
        zip(incremental.phases, reference.phases)
    ):
        assert report_fields(got) == report_fields(want), index
    return incremental


def assert_live_episode_checks_out(live: LiveEpisode, plane, ases):
    """Both halves of the wall, on one driven episode."""
    assert_trace_complete(live)  # so live_states[0] == initial_state
    return assert_matches_reference(
        live.segments, live.live_states, plane, ases
    )
