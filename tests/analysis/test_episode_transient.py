"""Equivalence and semantics tests for the episode transient analyzer.

The incremental :func:`analyze_episode_transient_problems` must agree
with its brute-force reference twin on real multi-phase runs of every
plane, a single-segment episode must agree with the brute-force
single-event twin (and with the one-segment adapter
``analyze_transient_problems``), and the boundary-scan rule must catch outcome flips that
happen *without any trace change* (a link restore heals walks whose
control-plane state never moved).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.transient import (
    EpisodeSegment,
    analyze_episode_transient_problems,
    analyze_transient_problems,
    _reference_analyze_episode_transient_problems,
    _reference_analyze_transient_problems,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_episode
from repro.experiments.scenarios import (
    correlated_outage_episode,
    link_flap_episode,
    staggered_maintenance_episode,
)
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.sim.tracing import ForwardingChange, ForwardingTrace
from repro.topology.generators import example_paper_topology
from repro.types import Outcome, normalize_link

PLANES = ("bgp", "rbgp", "rbgp-norci", "stamp")


@pytest.fixture
def captured_segments(monkeypatch):
    """Run an episode while capturing the analyzer's segment inputs."""
    captured = {}
    original = runner_mod.analyze_episode_transient_problems

    def shim(segments, plane, ases, **kwargs):
        captured["segments"] = list(segments)
        captured["plane"] = plane
        captured["ases"] = list(ases)
        return original(segments, plane, ases, **kwargs)

    monkeypatch.setattr(
        runner_mod, "analyze_episode_transient_problems", shim
    )
    return captured


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


class TestIncrementalMatchesReference:
    @pytest.mark.parametrize("protocol", PLANES)
    @pytest.mark.parametrize(
        "builder, kwargs",
        [
            (link_flap_episode, {"period": 35.0, "flaps": 2}),
            (staggered_maintenance_episode, {"window": 50.0, "gap": 20.0}),
            (correlated_outage_episode, {"delay": 12.0}),
        ],
    )
    def test_real_runs(self, captured_segments, protocol, builder, kwargs):
        graph = example_paper_topology()
        episode = builder(graph, random.Random("eq"), **kwargs)
        run_episode(graph, episode, protocol, seed=11)
        segments = captured_segments["segments"]
        plane = captured_segments["plane"]
        ases = captured_segments["ases"]
        incremental = analyze_episode_transient_problems(segments, plane, ases)
        reference = _reference_analyze_episode_transient_problems(
            segments, plane, ases
        )
        assert _report_fields(incremental.overall) == _report_fields(
            reference.overall
        )
        assert len(incremental.phases) == len(reference.phases)


class TestSingleSegmentEquivalence:
    @pytest.mark.parametrize("protocol", PLANES)
    def test_overall_equals_single_event_analyzer(
        self, captured_segments, protocol
    ):
        graph = example_paper_topology()
        episode = link_flap_episode(
            graph, random.Random("one"), period=30.0, flaps=1
        )
        # One-phase episode: keep only the first step (a bare failure).
        one_phase = type(episode)(
            destination=episode.destination, steps=episode.steps[:1]
        )
        run_episode(graph, one_phase, protocol, seed=5)
        (segment,) = captured_segments["segments"]
        plane = captured_segments["plane"]
        ases = captured_segments["ases"]
        episode_result = analyze_episode_transient_problems(
            [segment], plane, ases
        )
        assert episode_result.phases == [episode_result.overall]
        for single_event in (
            _reference_analyze_transient_problems,
            analyze_transient_problems,
        ):
            single = single_event(
                segment.trace,
                segment.initial_state,
                plane,
                ases,
                failed_links=segment.failed_links,
                failed_ases=segment.failed_ases,
            )
            assert _report_fields(episode_result.overall) == _report_fields(
                single
            )


class TestBoundaryScan:
    def test_restore_heals_without_any_trace_change(self):
        """1 -> 2 -> 3: the 1-2 link fails, then is silently restored.

        Phase 1's trace is empty (control plane never moved), yet the
        restore flips AS 1 from BLACKHOLE back to DELIVERED — only the
        boundary scan at the injection instant can observe that.
        """
        plane = BGPDataPlane(3)
        state = {(1, None): (2, 3), (2, None): (3,), (3, None): ()}
        failed = frozenset({normalize_link(1, 2)})
        seg_fail = EpisodeSegment(
            trace=ForwardingTrace(
                changes=[ForwardingChange(0.0, 1, None, (2, 3))]
            ),
            initial_state=dict(state),
            failed_links=failed,
            failed_ases=frozenset(),
            start_time=0.0,
        )
        seg_restore = EpisodeSegment(
            trace=ForwardingTrace(),
            initial_state=dict(state),
            failed_links=frozenset(),
            failed_ases=frozenset(),
            start_time=5.0,
        )
        result = analyze_episode_transient_problems(
            [seg_fail, seg_restore], plane, [1, 2, 3]
        )
        overall = result.overall
        # AS 1 blackholed from 0.0 to the restore at 5.0, then healed:
        # transient, not permanent.
        assert overall.affected == {1}
        assert overall.blackholed == {1}
        assert overall.permanently_unreachable == set()
        assert overall.problem_timeline == [(0.0, 1), (5.0, 0)]
        # The reference twin agrees.
        reference = _reference_analyze_episode_transient_problems(
            [seg_fail, seg_restore], plane, [1, 2, 3]
        )
        assert _report_fields(overall) == _report_fields(reference.overall)
        # Per-phase attribution: within phase 0 alone, AS 1 never
        # recovers (permanent from that phase's point of view); the
        # restore phase sees no problems at all.
        assert result.phases[0].permanently_unreachable == {1}
        assert result.phases[0].affected == set()
        assert result.phases[1].affected == set()

    def test_refail_counts_a_second_interval(self):
        """Fail → silent restore → silent re-fail: two problem windows."""
        plane = BGPDataPlane(3)
        state = {(1, None): (2, 3), (2, None): (3,), (3, None): ()}
        failed = frozenset({normalize_link(1, 2)})

        def segment(trace, links, start):
            return EpisodeSegment(
                trace=trace,
                initial_state=dict(state),
                failed_links=links,
                failed_ases=frozenset(),
                start_time=start,
            )

        segments = [
            segment(
                ForwardingTrace(changes=[ForwardingChange(0.0, 1, None, (2, 3))]),
                failed,
                0.0,
            ),
            segment(ForwardingTrace(), frozenset(), 5.0),
            segment(ForwardingTrace(), failed, 10.0),
        ]
        result = analyze_episode_transient_problems(segments, plane, [1, 2, 3])
        overall = result.overall
        # Ends failed: AS 1 is ultimately partitioned, so its problem
        # intervals resolve as permanent, not transient.
        assert overall.permanently_unreachable == {1}
        assert overall.affected == set()
        assert overall.problem_timeline == [(0.0, 1), (5.0, 0), (10.0, 1)]
        reference = _reference_analyze_episode_transient_problems(
            segments, plane, [1, 2, 3]
        )
        assert _report_fields(overall) == _report_fields(reference.overall)

    def test_empty_segments_yield_empty_report(self):
        plane = BGPDataPlane(3)
        result = analyze_episode_transient_problems([], plane, [1, 2, 3])
        assert result.overall.eligible == set()
        assert result.phases == []

    def test_no_trace_phases_leave_snapshots_untouched(self):
        """No-trace phases: the analyzer aliases, never mutates.

        The analyzer holds ``segment.initial_state`` itself as the
        running final state when a phase's trace is empty (the old
        defensive ``dict(...)`` copies are gone), so a mutation would
        corrupt the caller's segments.  Also pins that a final
        empty-trace phase still resolves permanence off the boundary
        snapshot.
        """
        plane = BGPDataPlane(3)
        state = {(1, None): (2, 3), (2, None): (3,), (3, None): ()}
        failed = frozenset({normalize_link(1, 2)})
        segments = [
            EpisodeSegment(
                trace=ForwardingTrace(
                    changes=[ForwardingChange(0.0, 1, None, (2, 3))]
                ),
                initial_state=dict(state),
                failed_links=failed,
                failed_ases=frozenset(),
                start_time=0.0,
            ),
            # Silent restore: no trace change in the whole phase.
            EpisodeSegment(
                trace=ForwardingTrace(),
                initial_state=dict(state),
                failed_links=frozenset(),
                failed_ases=frozenset(),
                start_time=5.0,
            ),
            # Silent re-fail as the *final* phase: finalize classifies
            # the aliased boundary snapshot.
            EpisodeSegment(
                trace=ForwardingTrace(),
                initial_state=dict(state),
                failed_links=failed,
                failed_ases=frozenset(),
                start_time=10.0,
            ),
        ]
        snapshots = [dict(segment.initial_state) for segment in segments]
        result = analyze_episode_transient_problems(segments, plane, [1, 2, 3])
        for segment, snapshot in zip(segments, snapshots):
            assert segment.initial_state == snapshot
        assert result.overall.permanently_unreachable == {1}
        reference = _reference_analyze_episode_transient_problems(
            segments, plane, [1, 2, 3]
        )
        assert _report_fields(result.overall) == _report_fields(
            reference.overall
        )
        for got, want in zip(result.phases, reference.phases):
            assert _report_fields(got) == _report_fields(want)
