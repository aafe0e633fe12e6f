"""Tests for transient-problem counting over synthetic traces."""

from repro.analysis.transient import analyze_transient_problems
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.sim.tracing import ForwardingTrace


def initial(paths):
    return {(asn, None): path for asn, path in paths.items()}


class TestEligibility:
    def test_pre_event_unreachable_ases_not_counted(self):
        trace = ForwardingTrace()
        # AS 2 has no route even before the event.
        state = initial({1: (9,), 2: None, 9: ()})
        trace.record(1.0, 1, None, None)  # 1 loses its route
        trace.record(2.0, 1, None, (9,))  # and recovers much later
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 2, 9]
        )
        assert report.eligible == {1, 9}
        assert report.affected == {1}

    def test_failed_ases_not_eligible(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 9], failed_ases=frozenset({1})
        )
        assert 1 not in report.eligible


class TestCounting:
    def test_blackhole_interval_counted(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(10.0, 1, None, None)
        trace.record(15.0, 1, None, (9,))
        report = analyze_transient_problems(trace, state, BGPDataPlane(9), [1, 9])
        assert report.affected == {1}
        assert report.blackholed == {1}
        assert report.looped == set()

    def test_loop_interval_counted(self):
        trace = ForwardingTrace()
        state = initial({1: (2, 9), 2: (9,), 9: ()})
        trace.record(10.0, 2, None, (1, 9))  # 2 now points back at 1
        trace.record(15.0, 2, None, (9,))
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 2, 9]
        )
        assert report.looped == {1, 2}

    def test_min_duration_filters_short_blips(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(10.0, 1, None, None)
        trace.record(10.4, 1, None, (9,))  # 0.4 s outage
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 9], min_duration=1.0
        )
        assert report.affected == set()
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 9], min_duration=0.2
        )
        assert report.affected == {1}

    def test_permanent_unreachability_excluded(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(10.0, 1, None, None)  # never recovers
        report = analyze_transient_problems(trace, state, BGPDataPlane(9), [1, 9])
        assert report.affected == set()
        assert report.permanently_unreachable == {1}

    def test_empty_trace_means_no_problems(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        report = analyze_transient_problems(trace, state, BGPDataPlane(9), [1, 9])
        assert report.affected_count == 0

    def test_failed_link_never_rerouted_is_permanent(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(5.0, 1, None, (9,))  # irrelevant change
        report = analyze_transient_problems(
            trace,
            state,
            BGPDataPlane(9),
            [1, 9],
            failed_links=frozenset({(1, 9)}),
        )
        # AS 1 never re-routes in this trace: permanently broken, not
        # transiently affected.
        assert report.eligible == {1, 9}
        assert report.affected == set()
        assert report.permanently_unreachable == {1}


class TestTimelines:
    def test_problem_timeline_tracks_current_problems(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 2: (9,), 9: ()})
        trace.record(10.0, 1, None, None)
        trace.record(12.0, 1, None, (9,))
        report = analyze_transient_problems(
            trace, state, BGPDataPlane(9), [1, 2, 9]
        )
        assert report.problem_timeline == [(10.0, 1), (12.0, 0)]

    def test_disruption_duration(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(10.0, 1, None, None)
        trace.record(13.0, 1, None, (9,))
        report = analyze_transient_problems(trace, state, BGPDataPlane(9), [1, 9])
        assert report.disruption_duration == 3.0

    def test_no_disruption_when_clean(self):
        trace = ForwardingTrace()
        state = initial({1: (9,), 9: ()})
        trace.record(10.0, 1, None, (9,))
        report = analyze_transient_problems(trace, state, BGPDataPlane(9), [1, 9])
        assert report.disruption_duration == 0.0
