"""Minimal deterministic discrete-event engine on a hierarchical timer wheel.

Events are callbacks scheduled at absolute simulated times; ties are
broken by insertion order, which (together with seeded RNGs everywhere)
makes every simulation fully reproducible.

Internally the queue is split into two tiers:

* a **near heap** — a conventional ``(time, seq)`` binary heap holding
  every event that falls before the current *horizon* (the end of the
  wheel bucket the clock is in).  Message deliveries (10-20 ms ahead)
  almost always land here, so the heap stays small and its ``log n``
  factor cheap.
* a **far wheel** — events at or beyond the horizon are parked in
  coarse time buckets (``BUCKET_WIDTH`` seconds each) as plain dict
  entries keyed by their insertion sequence number.  Arming a timer is
  one dict insert; cancelling one is one dict delete.  This is where
  MRAI timers live: armed ~22-30 s ahead, and with the wheel a
  cancelled timer **never enters the heap at all** — there is no
  tombstone to skip and nothing to compact.  Cancellation is rare in
  the packaged campaigns, though (a session that goes down with its
  timer armed, a reboot): on 154 ASes ``EventHandle.cancel`` ran 0
  times in a 16-unit ``fig2`` or ``node-failure`` grid and 3 times in
  a 16-unit 8-flap storm, so the wheel is kept for the size of the
  heap, not for cancels.

When the near heap drains, the earliest non-empty bucket is promoted:
its surviving entries are heapified into the near heap (restoring exact
``(time, seq)`` order) and the horizon advances past that bucket.
Promotion preserves the global ordering invariant — the wheel only ever
holds events at or beyond the horizon, the heap only events before it —
so the pop sequence is identical, event for event, to a single global
``(time, seq)`` heap.  The golden determinism test pins this: the wheel
is a data-structure change, not a behavior change.

Events that are never cancelled (message deliveries) can be scheduled
with :meth:`Engine.post_at`, which skips the :class:`EventHandle`
allocation entirely.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError


class EventHandle:
    """Cancellable reference to a scheduled event.

    The handle tracks where its event currently lives: ``_bucket`` is
    the far-wheel bucket index while parked there (cancel = O(1) dict
    delete), ``None`` once the event is in the near heap (cancel =
    lazy tombstone) or consumed.
    """

    __slots__ = ("time", "cancelled", "_engine", "_bucket", "_seq")

    def __init__(
        self,
        time: float,
        engine: "Optional[Engine]" = None,
        bucket: Optional[int] = None,
        seq: int = -1,
    ) -> None:
        self.time = time
        self.cancelled = False
        self._engine = engine
        self._bucket = bucket
        self._seq = seq

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled(self)


class Engine:
    """Event loop with a seeded random stream.

    The single :attr:`rng` is the only source of randomness used by
    protocol machinery (delays, MRAI jitter, blue-provider choices), so
    a fixed seed reproduces a run exactly.
    """

    #: Width of one far-wheel bucket in simulated seconds.  Message
    #: delays (10-20 ms) stay under the horizon; MRAI timers (~22-30 s)
    #: land several buckets out where arm/cancel is O(1).
    BUCKET_WIDTH = 1.0

    #: Compaction threshold for the near heap: never compact below this
    #: many cancelled entries (avoids thrashing on small queues).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._now = 0.0
        self._seq = 0
        #: Near heap: (time, seq, handle_or_None, action) before horizon.
        self._near: List[Tuple[float, int, Optional[EventHandle], Callable[[], Any]]] = []
        #: Far wheel: bucket index -> {seq: (time, seq, handle, action)}.
        self._wheel: Dict[int, Dict[int, Tuple[float, int, Optional[EventHandle], Callable[[], Any]]]] = {}
        #: Number of live (non-cancelled) entries parked in the wheel.
        self._far_count = 0
        #: Absolute time of the end of the current near window; events
        #: strictly before it go to the heap, everything else to the wheel.
        self._horizon = self.BUCKET_WIDTH
        self._events_processed = 0
        self._cancelled_in_near = 0

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
        return len(self._near) - self._cancelled_in_near + self._far_count

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------

    def _note_cancelled(self, handle: EventHandle) -> None:
        """Remove or tombstone a cancelled event.

        Wheel-resident events are deleted outright (O(1)); they never
        reach the heap.  Near-heap events stay as tombstones (lazy
        deletion) and are skipped on pop; once tombstones make up half
        of a large heap it is rebuilt without them, so cancellations
        cannot accumulate unboundedly even inside the near window.
        """
        bucket_index = handle._bucket
        if bucket_index is not None:
            bucket = self._wheel.get(bucket_index)
            if bucket is not None and bucket.pop(handle._seq, None) is not None:
                self._far_count -= 1
                if not bucket:
                    del self._wheel[bucket_index]
            handle._bucket = None
            handle._engine = None
            return
        self._cancelled_in_near += 1
        if (
            self._cancelled_in_near >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_near * 2 >= len(self._near)
        ):
            self._compact()

    def _compact(self) -> None:
        self._near = [
            entry
            for entry in self._near
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(self._near)
        self._cancelled_in_near = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], Any]) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        if time < self._horizon:
            handle = EventHandle(time, self)
            heapq.heappush(self._near, (time, seq, handle, action))
        else:
            bucket_index = int(time / self.BUCKET_WIDTH)
            handle = EventHandle(time, self, bucket_index, seq)
            bucket = self._wheel.get(bucket_index)
            if bucket is None:
                bucket = self._wheel[bucket_index] = {}
            bucket[seq] = (time, seq, handle, action)
            self._far_count += 1
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
        if time < self._horizon:
            heapq.heappush(self._near, (time, seq, None, action))
        else:
            bucket_index = int(time / self.BUCKET_WIDTH)
            bucket = self._wheel.get(bucket_index)
            if bucket is None:
                bucket = self._wheel[bucket_index] = {}
            bucket[seq] = (time, seq, None, action)
            self._far_count += 1

    # ------------------------------------------------------------------
    # Wheel promotion
    # ------------------------------------------------------------------

    def _promote(self, limit: Optional[float] = None) -> bool:
        """Move the earliest wheel bucket into the near heap.

        Returns ``False`` when the wheel is empty — or when ``limit``
        is given and the earliest bucket starts beyond it, in which
        case nothing is promoted and far timers keep their O(1)
        cancellability (``run(until=...)`` must not demote parked MRAI
        timers into heap tombstones).  Only called when the near heap
        is exhausted (the run loop pops tombstones eagerly), so
        heapifying the bucket's entries restores the exact global
        ``(time, seq)`` order.
        """
        while self._wheel:
            bucket_index = min(self._wheel)
            if limit is not None and bucket_index * self.BUCKET_WIDTH > limit:
                return False
            bucket = self._wheel.pop(bucket_index)
            self._horizon = (bucket_index + 1) * self.BUCKET_WIDTH
            if not bucket:
                continue
            entries = list(bucket.values())
            self._far_count -= len(entries)
            for _, _, handle, _ in entries:
                if handle is not None:
                    handle._bucket = None
            heapq.heapify(entries)
            self._near = entries
            return True
        return False

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
        stops the clock at an absolute time (later events stay queued);
        ``max_events`` bounds the number of callbacks, raising
        :class:`SimulationError` when exceeded — the backstop against a
        non-converging protocol bug.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run backwards (until={until} < now={self._now})"
            )
        executed = 0
        near = self._near
        heappop = heapq.heappop
        while True:
            if not near:
                if not self._promote(until):
                    if until is not None and self._wheel:
                        # Events exist but all lie beyond the stop time.
                        self._now = until
                    break
                near = self._near
            time, _, handle, action = near[0]
            if until is not None and time > until:
                self._now = until
                break
            heappop(near)
            if handle is not None:
                # Detach so a late cancel() of a consumed handle cannot
                # skew the tombstone accounting.
                handle._engine = None
                if handle.cancelled:
                    self._cancelled_in_near -= 1
                    continue
            self._now = time
            action()
            executed += 1
            self._events_processed += 1
            near = self._near  # compaction may have replaced the list
            if max_events is not None and executed >= max_events:
                if self.pending():
                    raise SimulationError(
                        f"exceeded max_events={max_events} with "
                        f"{self.pending()} events still pending"
                    )
        return executed
