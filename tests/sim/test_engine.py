"""Unit tests for the discrete-event engine."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(2.0, lambda: log.append("late"))
        engine.schedule(1.0, lambda: log.append("early"))
        engine.run()
        assert log == ["early", "late"]

    def test_ties_run_in_insertion_order(self):
        engine = Engine()
        log = []
        for name in ("a", "b", "c"):
            engine.schedule(1.0, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]
        assert engine.now == 1.5

    def test_nested_scheduling(self):
        engine = Engine()
        log = []

        def first():
            log.append("first")
            engine.schedule(0.5, lambda: log.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert log == ["first", "second"]
        assert engine.now == 1.5

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(3.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, lambda: log.append("x"))
        handle.cancel()
        engine.run()
        assert log == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.pending() == 1

    def test_mass_cancellation_of_far_timers_is_immediate(self):
        engine = Engine()
        keep = [engine.schedule(float(i), lambda: None) for i in range(10)]
        doomed = [
            engine.schedule(100.0 + i, lambda: None) for i in range(500)
        ]
        for handle in doomed:
            handle.cancel()
        # Cancelled timers are gone at once for every observer: not
        # pending, never run, and the clock never visits them.
        assert engine.pending() == len(keep)
        assert engine.run() == len(keep)
        assert engine.now == 9.0
        assert engine.pending() == 0

    def test_events_survive_mass_cancellation_in_order(self):
        engine = Engine()
        log = []
        for i in range(200):
            engine.schedule(float(i), lambda i=i: log.append(i))
        cancelled = [
            engine.schedule(1000.0, lambda: log.append("bad"))
            for _ in range(400)
        ]
        for handle in cancelled:
            handle.cancel()
        engine.run()
        assert log == list(range(200))

    def test_late_cancel_after_firing_keeps_pending_consistent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        handle.cancel()  # already fired: must not skew accounting
        assert engine.pending() == 1
        assert engine.run() == 1
        assert engine.pending() == 0


class TestNearAndFarEvents:
    """Message-like (ms) and MRAI-like (tens of s) events share one order."""

    def test_near_and_far_events_interleave_in_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.7, lambda: log.append(3.7))
        engine.schedule(0.2, lambda: log.append(0.2))
        engine.schedule(1.1, lambda: log.append(1.1))
        engine.schedule(0.9, lambda: log.append(0.9))
        engine.schedule(3.1, lambda: log.append(3.1))
        engine.run()
        assert log == sorted(log)

    def test_ties_among_far_events_run_in_insertion_order(self):
        engine = Engine()
        log = []
        for name in ("a", "b", "c"):
            engine.schedule(5.0, lambda n=name: log.append(n))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_cancel_then_rearm_on_same_tick(self):
        """An MRAI-style cancel + immediate re-arm at one instant."""
        engine = Engine()
        log = []
        handle = engine.schedule(30.0, lambda: log.append("stale"))

        def rearm():
            handle.cancel()
            engine.schedule(30.0, lambda: log.append("fresh"))

        engine.schedule(0.5, rearm)
        engine.run()
        assert log == ["fresh"]
        assert engine.now == 30.5
        assert engine.pending() == 0

    def test_cancel_rearm_cancel_leaves_no_residue(self):
        engine = Engine()
        fired = []
        for _ in range(100):
            handle = engine.schedule(25.0, lambda: fired.append(1))
            handle.cancel()
        keeper = engine.schedule(25.0, lambda: fired.append("keep"))
        assert engine.pending() == 1
        engine.run()
        assert fired == ["keep"]
        del keeper

    def test_cancel_shortly_before_firing_is_honored(self):
        engine = Engine()
        log = []
        handle = engine.schedule(5.5, lambda: log.append("doomed"))
        engine.schedule(5.2, lambda: handle.cancel())
        engine.run()
        assert log == []
        assert engine.pending() == 0

    def test_post_at_orders_with_scheduled_events(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append("handle"))
        engine.post_at(1.0, lambda: log.append("posted"))
        engine.post_at(0.5, lambda: log.append("early"))
        engine.run()
        assert log == ["early", "handle", "posted"]

    def test_post_at_rejects_past_times(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post_at(1.0, lambda: None)

    def test_scheduling_between_queued_events_while_running(self):
        engine = Engine()
        log = []

        def spawn():
            # now == 7.2: lands ahead of the already queued 7.4.
            engine.schedule(0.05, lambda: log.append("inner"))
            log.append("outer")

        engine.schedule(7.2, spawn)
        engine.schedule(7.4, lambda: log.append("later"))
        engine.run()
        assert log == ["outer", "inner", "later"]

    @pytest.mark.parametrize("delay", [0.5, 30.0])
    def test_a_tombstone_never_moves_or_holds_the_clock(self, delay):
        """A cancelled event behaves as if it had never been scheduled.

        ``run(until=)`` stops the clock at ``until`` only for a *live*
        event beyond it; a queue holding nothing but a cancelled one is
        an empty queue, however near or far the corpse lies.
        """
        engine = Engine()
        handle = engine.schedule(delay, lambda: None)
        handle.cancel()
        assert engine.run(until=0.2) == 0
        assert engine.now == 0.0
        assert engine.pending() == 0

    def test_cancel_after_run_until_leaves_nothing_pending(self):
        engine = Engine()
        handle = engine.schedule(30.0, lambda: None)
        engine.run(until=5.0)
        assert engine.now == 5.0
        handle.cancel()
        assert engine.pending() == 0
        assert engine.run() == 0
        assert engine.now == 5.0

    def test_run_until_parks_far_events(self):
        engine = Engine()
        log = []
        engine.schedule(0.5, lambda: log.append("near"))
        engine.schedule(40.0, lambda: log.append("far"))
        engine.run(until=10.0)
        assert log == ["near"]
        assert engine.now == 10.0
        assert engine.pending() == 1
        engine.run()
        assert log == ["near", "far"]


class TestRunLimits:
    def test_until_stops_the_clock(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(5.0, lambda: log.append(5))
        engine.run(until=2.0)
        assert log == [1]
        assert engine.now == 2.0
        engine.run()
        assert log == [1, 5]

    def test_max_events_raises_when_exceeded(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=10)

    def test_run_returns_executed_count(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        assert engine.run() == 3
        assert engine.events_processed == 3


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Engine(seed=42).rng.random()
        b = Engine(seed=42).rng.random()
        assert a == b


class TestRunBackwardsGuard:
    def test_until_in_the_past_is_rejected(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        with pytest.raises(SimulationError):
            engine.run(until=1.0)
        assert engine.now == 5.0  # clock untouched

    def test_until_equal_to_now_is_a_no_op(self):
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.run(until=engine.now) == 0


class _ListModel:
    """The engine's whole contract: a plain list, sorted when asked.

    An entry is ``[time, seq, ident, child_delay, live]``; cancelling
    or firing clears ``live``, and a dead entry is as good as absent.
    """

    def __init__(self):
        self.now, self.entries, self.log, self.handles = 0.0, [], [], []

    def schedule(self, delay, child_delay=None, handle=True):
        seq = len(self.entries)
        entry = [self.now + delay, seq, seq, child_delay, True]
        self.entries.append(entry)
        if handle:
            self.handles.append(entry)

    def pending(self):
        return sum(entry[4] for entry in self.entries)

    def run(self, until=None, max_events=None):
        """Returns ``(executed, overran)``."""
        executed = 0
        while self.pending():
            entry = min(e for e in self.entries if e[4])
            if until is not None and entry[0] > until:
                self.now = until
                break
            self.now, entry[4] = entry[0], False
            self.log.append(entry[2])
            if entry[3] is not None:
                self.schedule(entry[3])
            executed += 1
            if max_events is not None and executed >= max_events and self.pending():
                return executed, True
        return executed, False


_DELAYS = st.one_of(
    # Ties, message delays, the MRAI range, and both sides of 1 s.
    st.sampled_from([0.0, 0.01, 0.015, 0.02, 0.5, 0.999, 1.0, 22.5, 30.0]),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
)
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, st.none() | _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("post_at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_max"), st.integers(min_value=1, max_value=6)),
)


class TestAgainstAListThatSortsItself:
    """The heap is a data structure, not a behaviour: any stream of
    calls gives the executed order, return counts, clock and
    ``pending()`` of a list sorted by ``(time, seq)``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    # A tombstone, near or far, never sets ``now = until``: random
    # streams rarely cancel *everything* queued, so pin the case.
    @example([("schedule_at", 0.015), ("cancel", 0), ("run_until", 0.01)])
    @example([("schedule", 30.0, None), ("cancel", 0), ("run_until", 5.0)])
    def test_every_stream_matches_the_model(self, ops):
        engine, model = Engine(), _ListModel()
        log, handles, idents = [], [], itertools.count()

        def action(child_delay):
            ident = next(idents)

            def fire():
                log.append(ident)
                if child_delay is not None:
                    handles.append(engine.schedule(child_delay, action(None)))

            return fire

        for op in ops:
            kind = op[0]
            if kind == "schedule":
                handles.append(engine.schedule(op[1], action(op[2])))
                model.schedule(op[1], op[2])
            elif kind == "schedule_at":
                # schedule_at(t) is schedule(t - now), rounding included.
                time = engine.now + op[1]
                handles.append(engine.schedule_at(time, action(None)))
                model.schedule(time - model.now)
            elif kind == "post_at":
                engine.post_at(engine.now + op[1], action(None))
                model.schedule(op[1], handle=False)
            elif kind == "cancel":
                if handles:
                    # Fired and already-cancelled handles included.
                    handles[op[1] % len(handles)].cancel()
                    model.handles[op[1] % len(handles)][4] = False
            else:
                limits = {}
                if kind == "run_until":
                    limits["until"] = engine.now + op[1]
                elif kind == "run_max":
                    limits["max_events"] = op[1]
                before = engine.events_processed
                expected, overran = model.run(**limits)
                if overran:
                    with pytest.raises(SimulationError):
                        engine.run(**limits)
                    assert engine.events_processed - before == expected
                else:
                    assert engine.run(**limits) == expected
            assert log == model.log
            assert engine.now == model.now
            assert engine.pending() == model.pending()
            assert len(handles) == len(model.handles)
