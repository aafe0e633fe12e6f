"""Unit tests for forwarding-change tracing and replay."""

import pytest

from reference.tracing import replay
from repro.sim.tracing import ForwardingChange, ForwardingTrace


class TestRecording:
    def test_record_appends_in_time_order(self):
        trace = ForwardingTrace()
        trace.record(1.0, 10, None, (20,))
        trace.record(1.0, 11, None, (20,))
        trace.record(2.0, 10, None, None)
        assert trace.changes == [
            ForwardingChange(1.0, 10, None, (20,)),
            ForwardingChange(1.0, 11, None, (20,)),
            ForwardingChange(2.0, 10, None, None),
        ]
        with pytest.raises(ValueError, match="recorded after"):
            trace.record(1.5, 11, None, None)

    def test_clear(self):
        trace = ForwardingTrace()
        trace.record(1.0, 10, None, (20,))
        trace.clear()
        assert trace.changes == []


class TestReplay:
    def test_changes_grouped_by_time(self):
        trace = ForwardingTrace()
        trace.record(1.0, 10, None, "a")
        trace.record(1.0, 11, None, "b")
        trace.record(2.0, 10, None, "c")
        snapshots = []
        for time, state in replay(trace, {(10, None): None, (11, None): None}):
            snapshots.append((time, state[(10, None)], state[(11, None)]))
        assert snapshots == [(1.0, "a", "b"), (2.0, "c", "b")]

    def test_initial_state_not_mutated_by_caller_copy(self):
        trace = ForwardingTrace()
        trace.record(1.0, 10, None, "new")
        initial = {(10, None): "old"}
        list(replay(trace, initial))
        assert initial == {(10, None): "old"}

    def test_keys_can_be_rich(self):
        trace = ForwardingTrace()
        trace.record(1.0, 10, ("unstable", "red"), True)
        _, state = next(iter(replay(trace, {})))
        assert state[(10, ("unstable", "red"))] is True

    def test_empty_trace_yields_nothing(self):
        trace = ForwardingTrace()
        assert list(replay(trace, {})) == []
