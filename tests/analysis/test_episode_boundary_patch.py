"""Fuzzed differential wall for cross-boundary table patching.

The episode analyzer carries one successor table *across* phase
boundaries as a patch (:meth:`repro.analysis.transient._IncrementalScan
.begin_segment`: the snapshot diff plus
:meth:`repro.forwarding.walk.SuccessorTable.apply_boundary`) instead of
rebuilding per segment.  These tests pin that machinery against the
brute-force reference twin on seeded random episodes — mixed link/AS
fail and restore events, 2–64 phases, silent restores and re-fails —
across every plane, and pin the individual load-bearing pieces:

* at every boundary the patched table equals a table built from
  scratch over the boundary snapshot and failure sets;
* a next hop that leaves the indexed AS universe *mid-episode* is
  interned on the fly and the analysis stays exact across later
  boundaries;
* property (hypothesis), every plane: ``apply_boundary``'s transitions
  are exactly the sources whose outcome the failure-set delta changed,
  and the patched table equals a fresh one.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.transient import (
    EpisodeSegment,
    _IncrementalScan,
    _reference_analyze_episode_transient_problems,
    analyze_episode_transient_problems,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import collect_episode_segments
from repro.experiments.scenarios import (
    Episode,
    fail_as,
    fail_link,
    restore_as,
    restore_link,
)
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.sim.tracing import ForwardingChange, ForwardingTrace
from repro.types import Color, normalize_link
from test_successor_table import (
    FUZZ_ASES,
    PLANES,
    _random_topology,
    fuzz_failure_sets,
    fuzz_plane,
    fuzz_state,
    scalar_outcomes,
)


def _random_episode(graph, rng, n_phases: int) -> Episode:
    """A seeded random episode: one event per phase, mixed kinds.

    The first three phases (when there are at least four) are a
    deterministic fail → restore → re-fail of one link, so every
    generated episode of that size exercises a restore boundary and a
    re-fail boundary; the rest is a random walk over feasible events
    (links and ASes fail and come back, never the destination).
    """
    links = sorted(normalize_link(a, b) for a, b, _ in graph.links())
    candidates = [asn for asn in graph.ases if graph.is_multihomed(asn)]
    destination = rng.choice(candidates)
    up_links = set(links)
    down_links: set = set()
    up_ases = {asn for asn in graph.ases if asn != destination}
    down_ases: set = set()
    steps = []
    offset = 0.0

    def push(event):
        steps.append((offset, event))

    def do_fail_link():
        link = rng.choice(sorted(up_links))
        up_links.discard(link)
        down_links.add(link)
        push(fail_link(*link))

    phases = []
    if n_phases >= 4:
        refail = rng.choice(links)
        phases = ["refail-0", "refail-1", "refail-2"]
    while len(phases) < n_phases:
        phases.append("random")
    for kind in phases:
        offset += rng.choice([4.0, 7.0, 12.0])
        if kind == "refail-0" or kind == "refail-2":
            up_links.discard(refail)
            down_links.add(refail)
            push(fail_link(*refail))
            continue
        if kind == "refail-1":
            down_links.discard(refail)
            up_links.add(refail)
            push(restore_link(*refail))
            continue
        roll = rng.random()
        if roll < 0.40 or (not down_links and not down_ases):
            do_fail_link()
        elif roll < 0.65 and down_links:
            link = rng.choice(sorted(down_links))
            down_links.discard(link)
            up_links.add(link)
            push(restore_link(*link))
        elif roll < 0.85 and len(up_ases) > 3:
            asn = rng.choice(sorted(up_ases))
            up_ases.discard(asn)
            down_ases.add(asn)
            push(fail_as(asn))
        elif down_ases:
            asn = rng.choice(sorted(down_ases))
            down_ases.discard(asn)
            up_ases.add(asn)
            push(restore_as(asn))
        else:
            do_fail_link()
    return Episode(destination=destination, steps=tuple(steps))


def _run_segments(graph, episode, protocol: str):
    network, plane, _ = runner_mod._acquire_started_network(
        graph, episode.destination, protocol, 7, None,
        episode.pre_failed_links,
    )
    segments, _ = collect_episode_segments(network, episode)
    return segments, plane


def _report_fields(report):
    return (
        report.eligible,
        report.affected,
        report.looped,
        report.blackholed,
        report.permanently_unreachable,
        report.timeline,
        report.problem_timeline,
    )


def _assert_matches_reference(segments, plane, ases):
    incremental = analyze_episode_transient_problems(segments, plane, ases)
    reference = _reference_analyze_episode_transient_problems(
        segments, plane, ases
    )
    assert _report_fields(incremental.overall) == _report_fields(
        reference.overall
    )
    assert len(incremental.phases) == len(reference.phases)
    for index, (got, want) in enumerate(
        zip(incremental.phases, reference.phases)
    ):
        assert _report_fields(got) == _report_fields(want), index
    return incremental


class TestFuzzedEpisodes:
    """Seeded random episodes diff clean against the reference twin."""

    @pytest.mark.parametrize("protocol", PLANES)
    @pytest.mark.parametrize(
        "seed, n_phases",
        [(0, 2), (1, 5), (2, 9), (3, 17), (4, 33)],
    )
    def test_random_episodes(self, protocol, seed, n_phases):
        graph = _random_topology(seed % 3)
        rng = random.Random(f"fuzz:{protocol}:{seed}:{n_phases}")
        episode = _random_episode(graph, rng, n_phases)
        segments, plane = _run_segments(graph, episode, protocol)
        assert len(segments) == n_phases
        _assert_matches_reference(segments, plane, list(graph.ases))

    @pytest.mark.parametrize("protocol", ("stamp", "bgp"))
    def test_long_horizon_64_phases(self, protocol):
        graph = _random_topology(1)
        rng = random.Random(f"fuzz64:{protocol}")
        episode = _random_episode(graph, rng, 64)
        segments, plane = _run_segments(graph, episode, protocol)
        assert len(segments) == 64
        _assert_matches_reference(segments, plane, list(graph.ases))


class TestPatchedVsRebuilt:
    """A table patched across a boundary equals one built there."""

    @pytest.mark.parametrize("protocol", PLANES)
    def test_forced_rebuild_is_identical(self, monkeypatch, protocol):
        graph = _random_topology(2)
        rng = random.Random(f"pvr:{protocol}")
        episode = _random_episode(graph, rng, 9)
        segments, plane = _run_segments(graph, episode, protocol)
        ases = list(graph.ases)

        # The failure sets of the boundary just crossed, until the
        # next scan has flushed the patched table and compared it.
        crossed = []
        compared = []
        begin_segment = _IncrementalScan.begin_segment
        scan = _IncrementalScan.scan

        def begin_spy(self, initial_state, failed_links, failed_ases):
            begin_segment(self, initial_state, failed_links, failed_ases)
            crossed[:] = [(failed_links, failed_ases)]

        def scan_spy(self, state, *args, **kwargs):
            scan(self, state, *args, **kwargs)
            if crossed:
                rebuilt = plane._session_table(state, *crossed.pop())
                compared.append(
                    self.table.source_outcomes(ases)
                    == rebuilt.source_outcomes(ases)
                )

        monkeypatch.setattr(_IncrementalScan, "begin_segment", begin_spy)
        monkeypatch.setattr(_IncrementalScan, "scan", scan_spy)
        _assert_matches_reference(segments, plane, ases)
        # Every boundary is followed by a scan, except possibly the
        # first segment's start (nothing precedes it to be rescanned).
        assert len(compared) >= len(segments) - 1 and all(compared)


def _random_stamp_state(rng):
    """A fuzzed STAMP snapshot (arbitrary routes/flags)."""
    _, tags = fuzz_plane("stamp", rng)
    return fuzz_state(rng, tags)


def _broken_mid_episode_segments():
    """Synthetic STAMP episode that leaves the AS universe in segment 1.

    Segment 1's trace introduces a next hop no snapshot holds a key
    for (the table interns it as a routeless row on the fly), then
    routes away from it again; segment 2 crosses another boundary
    with the interned row in the table.
    """
    rng = random.Random("broken-mid")
    state = _random_stamp_state(rng)
    link = normalize_link(2, 5)
    seg0 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[ForwardingChange(1.0, 4, Color.RED, (1,))]
        ),
        initial_state=dict(state),
        failed_links=frozenset({link}),
        failed_ases=frozenset(),
        start_time=0.0,
    )
    state1 = dict(state)
    state1[(4, Color.RED)] = (1,)
    seg1 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[
                ForwardingChange(6.0, 3, Color.RED, (999,)),
                ForwardingChange(7.0, 3, Color.RED, (2, 1)),
            ]
        ),
        initial_state=dict(state1),
        failed_links=frozenset(),
        failed_ases=frozenset(),
        start_time=5.0,
    )
    state2 = dict(state1)
    state2[(3, Color.RED)] = (2, 1)
    seg2 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[ForwardingChange(11.0, 6, Color.BLUE, None)]
        ),
        initial_state=dict(state2),
        failed_links=frozenset({normalize_link(1, 3)}),
        failed_ases=frozenset({7}),
        start_time=10.0,
    )
    return FUZZ_ASES, [seg0, seg1, seg2]


class TestOutOfUniverseMidEpisode:
    def test_matches_reference(self):
        ases, segments = _broken_mid_episode_segments()
        _assert_matches_reference(segments, STAMPDataPlane(destination=1), ases)


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_apply_boundary_invalidation_covers_every_changed_source(seed):
    """apply_boundary's transitions are exactly the changed sources.

    Completeness: every source whose fate the failure-set delta
    changed must be reported (with its new fate).  Precision: only
    changed sources are reported.  The patched table must agree with a
    table built from scratch under the new sets, and with the scalar
    walks, for every source.
    """
    for name in PLANES:
        rng = random.Random(f"hyp:boundary:{name}:{seed}")
        plane, tags = fuzz_plane(name, rng)
        state = fuzz_state(rng, tags, outsider=seed % 2 == 1)
        old_links, old_ases = fuzz_failure_sets(rng)
        new_links, new_ases = fuzz_failure_sets(rng)

        patched = plane._session_table(state, old_links, old_ases)
        baseline = patched.source_outcomes(FUZZ_ASES)
        assert baseline == scalar_outcomes(
            plane, state, FUZZ_ASES, old_links, old_ases
        ), name
        patched.apply_boundary(new_links, new_ases)
        transitions = dict(patched.collect_transitions())

        expected = plane._session_table(
            state, new_links, new_ases
        ).source_outcomes(FUZZ_ASES)
        assert expected == scalar_outcomes(
            plane, state, FUZZ_ASES, new_links, new_ases
        ), name
        assert {
            asn: expected[asn]
            for asn in FUZZ_ASES
            if baseline[asn] is not expected[asn]
        } == {
            asn: outcome
            for asn, outcome in transitions.items()
            if asn in baseline
        }, name
        assert patched.source_outcomes(FUZZ_ASES) == expected, name
