"""Equivalence and semantics tests for the episode transient analyzer.

The incremental :func:`analyze_episode_transient_problems` must agree
with its brute-force reference twin on real multi-phase runs of every
plane (driven by the test-side collector of ``live_collector.py``, so
the twin's per-segment snapshots are photographs of the live network,
not replays of the trace), a single-segment episode must agree with
the brute-force single-event twin (and with the one-segment adapter
``analyze_transient_problems``), and the boundary-scan rule must catch
outcome flips that happen *without any trace change* (a link restore
heals walks whose control-plane state never moved).
"""

from __future__ import annotations

import random

import pytest

from live_collector import (
    assert_live_episode_checks_out,
    report_fields as _report_fields,
    run_live,
)
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

    def shim(segments, initial_state, plane, ases, **kwargs):
        captured["segments"] = list(segments)
        captured["initial_state"] = initial_state
        captured["plane"] = plane
        captured["ases"] = list(ases)
        return original(segments, initial_state, plane, ases, **kwargs)

    monkeypatch.setattr(
        runner_mod, "analyze_episode_transient_problems", shim
    )
    return captured


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
    def test_real_runs(self, protocol, builder, kwargs):
        graph = example_paper_topology()
        episode = builder(graph, random.Random("eq"), **kwargs)
        live, plane = run_live(graph, episode, protocol, seed=11)
        assert_live_episode_checks_out(live, plane, list(graph.ases))


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
        initial_state = captured_segments["initial_state"]
        plane = captured_segments["plane"]
        ases = captured_segments["ases"]
        episode_result = analyze_episode_transient_problems(
            [segment], initial_state, plane, ases
        )
        assert episode_result.phases == [episode_result.overall]
        for single_event in (
            _reference_analyze_transient_problems,
            analyze_transient_problems,
        ):
            single = single_event(
                segment.trace,
                initial_state,
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
            failed_links=failed,
            failed_ases=frozenset(),
            start_time=0.0,
        )
        seg_restore = EpisodeSegment(
            trace=ForwardingTrace(),
            failed_links=frozenset(),
            failed_ases=frozenset(),
            start_time=5.0,
        )
        result = analyze_episode_transient_problems(
            [seg_fail, seg_restore], state, plane, [1, 2, 3]
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
            [seg_fail, seg_restore], [state, state], plane, [1, 2, 3]
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
        result = analyze_episode_transient_problems(
            segments, state, plane, [1, 2, 3]
        )
        overall = result.overall
        # Ends failed: AS 1 is ultimately partitioned, so its problem
        # intervals resolve as permanent, not transient.
        assert overall.permanently_unreachable == {1}
        assert overall.affected == set()
        assert overall.problem_timeline == [(0.0, 1), (5.0, 0), (10.0, 1)]
        reference = _reference_analyze_episode_transient_problems(
            segments, [state] * 3, plane, [1, 2, 3]
        )
        assert _report_fields(overall) == _report_fields(reference.overall)

    def test_empty_segments_yield_empty_report(self):
        plane = BGPDataPlane(3)
        result = analyze_episode_transient_problems([], {}, plane, [1, 2, 3])
        assert result.overall.eligible == set()
        assert result.phases == []

    def test_no_trace_phases_leave_snapshots_untouched(self):
        """The analyzer replays in place — on its own copy.

        One snapshot enters the analysis; the analyzer copies it once
        and writes every phase's trace into the copy, so the caller's
        dict must come back exactly as it went in even though the
        trace moves a key for good (AS 4 loses its route and never
        regains it).  Also pins that no-trace phases carry the state
        across their boundaries untouched, and that a final
        empty-trace phase still resolves permanence off the carried
        state.
        """
        plane = BGPDataPlane(3)
        state = {
            (1, None): (2, 3), (2, None): (3,), (3, None): (),
            (4, None): (3,),
        }
        failed = frozenset({normalize_link(1, 2)})
        segments = [
            EpisodeSegment(
                trace=ForwardingTrace(
                    changes=[
                        ForwardingChange(0.0, 1, None, (2, 3)),
                        ForwardingChange(1.0, 4, None, None),
                    ]
                ),
                failed_links=failed,
                failed_ases=frozenset(),
                start_time=0.0,
            ),
            # Silent restore: no trace change in the whole phase.
            EpisodeSegment(
                trace=ForwardingTrace(),
                failed_links=frozenset(),
                failed_ases=frozenset(),
                start_time=5.0,
            ),
            # Silent re-fail as the *final* phase: finalize classifies
            # the carried state.
            EpisodeSegment(
                trace=ForwardingTrace(),
                failed_links=failed,
                failed_ases=frozenset(),
                start_time=10.0,
            ),
        ]
        ases = [1, 2, 3, 4]
        snapshot = dict(state)
        result = analyze_episode_transient_problems(
            segments, state, plane, ases
        )
        assert state == snapshot
        assert result.overall.permanently_unreachable == {1, 4}
        # Phases 1 and 2 start from the state phase 0 left behind:
        # AS 4 is routeless there, so it is no longer eligible.
        assert [4 in phase.eligible for phase in result.phases] == [
            True, False, False,
        ]
        after = dict(state)
        after[(4, None)] = None
        reference = _reference_analyze_episode_transient_problems(
            segments, [state, after, after], plane, ases
        )
        assert state == snapshot
        assert _report_fields(result.overall) == _report_fields(
            reference.overall
        )
        for got, want in zip(result.phases, reference.phases):
            assert _report_fields(got) == _report_fields(want)
