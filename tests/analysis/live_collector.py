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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.transient import (
    EpisodeSegment,
    _reference_analyze_episode_transient_problems,
    analyze_episode_transient_problems,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import collect_episode_segments


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
    for offset, _, _ in episode.instants():
        engine.post_at(
            base + offset,
            lambda: live_states.append(network.forwarding_state()),
        )
    segments, initial_state, _ = collect_episode_segments(network, episode)
    assert len(live_states) == len(segments)
    return LiveEpisode(
        segments, initial_state, live_states, network.forwarding_state()
    )


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
