"""Minimal deterministic discrete-event engine: one ``(time, seq)`` heap.

Events are callbacks scheduled at absolute simulated times; ties are
broken by insertion order, which (together with seeded RNGs everywhere)
makes every simulation fully reproducible.

The queue is a single :mod:`heapq` of ``(time, seq, handle_or_None,
action)`` entries.  ``seq`` is unique, so the order is total and no
comparison ever reaches the handle or the callback.  Message deliveries
(10-20 ms ahead) and MRAI timers (~22-30 s ahead) share it.

Cancelling an event marks its handle; the entry stays in the heap as a
tombstone and is discarded when it reaches the head.  A tombstone
occupies exactly the slot its live timer would have and leaves at the
same instant, so the heap is never larger than it would be had nothing
been cancelled — there is nothing to compact.  (Cancellation is rare
in the packaged campaigns anyway: on 154 ASes ``EventHandle.cancel``
ran 0 times in a 16-unit ``fig2`` or ``node-failure`` grid and 3 times
in a 16-unit 8-flap storm.)  A cancelled event behaves as if it had
never been scheduled: it is never executed, never counted by
:meth:`Engine.pending`, and never moves or holds the clock.

Events that are never cancelled (message deliveries) can be scheduled
with :meth:`Engine.post_at`, which skips the :class:`EventHandle`
allocation entirely.
"""

from __future__ import annotations

import heapq
import random
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: ``max_events`` when none is given: a bound no run reaches.
_NO_LIMIT = sys.maxsize


class EventHandle:
    """Cancellable reference to a scheduled event.

    ``_engine`` is the engine whose heap still holds the event; it is
    dropped when the entry leaves the heap, so cancelling a consumed
    handle cannot skew the tombstone count.
    """

    __slots__ = ("time", "cancelled", "_engine")

    def __init__(self, time: float, engine: "Engine") -> None:
        self.time = time
        self.cancelled = False
        self._engine: Optional[Engine] = engine

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._tombstones += 1


class Engine:
    """Event loop with a seeded random stream.

    The single :attr:`rng` is the only source of randomness used by
    protocol machinery (delays, MRAI jitter, blue-provider choices), so
    a fixed seed reproduces a run exactly.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._now = 0.0
        self._seq = 0
        self._heap: List[
            Tuple[float, int, Optional[EventHandle], Callable[[], Any]]
        ] = []
        #: Cancelled entries still in the heap.
        self._tombstones = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def pending(self) -> int:
        """Number of queued (non-cancelled) events — O(1)."""
        return len(self._heap) - self._tombstones

    def fork(self) -> "Engine":
        """An independent engine at this one's instant, with nothing queued.

        The twin has the same clock, insertion sequence, event count and
        generator state, so it schedules and draws exactly as this
        engine would from here.  Only a drained engine forks: a queued
        event's callback belongs to the original's objects.
        """
        if self.pending():
            raise SimulationError(
                f"cannot fork an engine with {self.pending()} events queued"
            )
        twin = Engine()
        twin.rng.setstate(self.rng.getstate())
        twin._now = self._now
        twin._seq = self._seq
        twin._events_processed = self._events_processed
        return twin

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], Any]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        handle = EventHandle(time, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, handle, action))
        return handle

    def schedule_at(self, time: float, action: Callable[[], Any]) -> EventHandle:
        """Schedule ``action`` at an absolute simulated time."""
        return self.schedule(time - self._now, action)

    def post_at(self, time: float, action: Callable[[], Any]) -> None:
        """Schedule a non-cancellable event at an absolute time.

        Identical ordering semantics to :meth:`schedule_at`, but no
        :class:`EventHandle` is allocated — the fast path for message
        deliveries, which are never cancelled individually (loss is
        decided at delivery time by the transport).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (delay={time - self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, None, action))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains (or a limit is hit).

        Returns the number of events executed by this call.  ``until``
        stops the clock at an absolute time when a live event lies
        beyond it (that event stays queued); a queue that drains first
        leaves the clock at its last event.  ``max_events`` bounds the
        number of callbacks, raising :class:`SimulationError` when
        exceeded — the backstop against a non-converging protocol bug.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run backwards (until={until} < now={self._now})"
            )
        limit = max_events if max_events is not None else _NO_LIMIT
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                if until is not None:
                    head = heap[0]
                    if head[0] > until and (
                        head[2] is None or not head[2].cancelled
                    ):
                        self._now = until
                        break
                time, _, handle, action = heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        # Discarded wherever it lies: a tombstone never
                        # stops the clock at ``until`` (the head test
                        # above passes it over).
                        self._tombstones -= 1
                        continue
                    handle._engine = None
                self._now = time
                action()
                executed += 1
                if executed >= limit and self.pending():
                    raise SimulationError(
                        f"exceeded max_events={max_events} with "
                        f"{self.pending()} events still pending"
                    )
        finally:
            # Counted once per call: nothing reads the total from
            # inside an event, and it is exact at every return.
            self._events_processed += executed
        return executed
