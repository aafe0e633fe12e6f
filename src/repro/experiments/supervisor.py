"""Supervised execution of experiment units: retry, timeout, backoff.

The experiment grid is embarrassingly parallel, but a bare
``pool.map`` is all-or-nothing: one unit that raises, one worker the
OOM reaper kills, or one hung simulation loses the entire campaign.
This module replaces it with a *supervised worker pool*:

* every unit is dispatched individually to a long-lived worker process
  over a dedicated pipe, so the supervisor always knows exactly which
  unit each worker is running (no shared queue a dying worker could
  poison, and failure attribution is exact);
* each attempt runs under a configurable wall-clock timeout — a hung
  worker is killed and only *its* unit is charged an attempt;
* a worker that dies (``os._exit``, OOM kill, segfault) is detected
  via its process sentinel, its unit is charged, and a replacement
  worker is spawned;
* failed units are retried up to ``max_attempts`` times with
  exponential backoff;
* terminal failures are classified into structured
  :class:`UnitFailure` records, so a campaign returns *all* completed
  results plus an explicit failure report instead of one opaque
  exception.

Determinism: every unit is a pure function of ``(graph, builder, kind,
seed, instance, protocol)`` (see :func:`run_unit`) and results are
returned positionally, so retries, worker placement, and worker count
are invisible in the output — a failure-free supervised run is
byte-identical to the sequential path at any worker count (pinned by
the golden determinism tests).

With a :class:`~repro.experiments.ledger.ResultLedger` attached, every
completed unit is appended crash-safely as it finishes and
already-ledgered units are never recomputed — the persistence half of
resumable campaigns (see ``docs/robustness.md``).
"""

from __future__ import annotations

import contextlib
import gc
import logging
import multiprocessing
import os
import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments import faults
from repro.experiments.ledger import ResultLedger
from repro.experiments.runner import (
    _RBGP_PROTOCOLS,
    clear_twin_start_cache,
    derive_run_seed,
    run_episode,
)
from repro.topology import shm as topology_shm
from repro.topology.graph import ASGraph, _CSRBase

logger = logging.getLogger("repro.experiments.supervisor")

#: One work unit: (episode builder, kind, master seed, instance,
#: protocol).  The paper's single-instant figures and the multi-phase
#: campaigns differ only in the builder, so campaign drivers fan every
#: family over the identical pool/merge machinery.
WorkUnit = Tuple[Callable, str, int, int, str]


def _twin_indices(units: Sequence[WorkUnit]) -> List[Optional[int]]:
    """Per unit, the grid index of its R-BGP twin, or ``None``.

    Twins are the ``rbgp`` and ``rbgp-norci`` units of one (builder,
    kind, seed, instance): the same episode under the same simulation
    seed, so their initial convergence is one computation and the
    runner's twin-start slot lets whichever runs second, *in the same
    process and right after the first*, restore it instead of
    simulating it again.  The dispatch rule
    (:meth:`Supervisor._next_eligible`) reads this table to arrange
    exactly that.
    """
    twins: List[Optional[int]] = [None] * len(units)
    unpaired: Dict[Tuple, int] = {}
    for index, (*episode, protocol) in enumerate(units):
        if protocol not in _RBGP_PROTOCOLS:
            continue
        key = tuple(episode)
        other = unpaired.get(key)
        if other is None:
            unpaired[key] = index
        elif units[other][4] != protocol:
            del unpaired[key]
            twins[index], twins[other] = other, index
    return twins


#: The collector is one switch per process, and a daemon's lanes pause
#: it from several threads: the first entrant records its state and
#: disables it, the last one out restores it.
_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0
_gc_was_enabled = False


def _reset_gc_pause() -> None:
    """A forked child starts with no pause of its own (and a lock no
    other thread of the parent can be holding)."""
    global _gc_pause_lock, _gc_pause_depth
    _gc_pause_lock = threading.Lock()
    _gc_pause_depth = 0


os.register_at_fork(after_in_child=_reset_gc_pause)


@contextlib.contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around simulation units.

    A protocol simulation allocates hundreds of thousands of tracked
    objects (routes, messages, event tuples); with the collector
    enabled, generational scans account for a double-digit percentage
    of end-to-end figure time.  Pausing is safe because every network
    is explicitly ``dispose()``d when its unit finishes — the cycles
    the collector would have to find are broken by hand, and memory
    returns through reference counting.  Pauses nest, within a thread
    and across threads: the collector state from before the outermost
    one is restored when the last one ends, even on error.
    """
    global _gc_pause_depth, _gc_was_enabled
    with _gc_pause_lock:
        if _gc_pause_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_was_enabled:
                gc.enable()


def run_unit(
    graph: ASGraph,
    builder: Callable,
    kind: str,
    seed: int,
    instance: int,
    protocol: str,
):
    """Execute one (instance, protocol) simulation deterministically.

    Every execution path — sequential, pooled, retried —
    runs exactly this function, which is what makes scheduling
    invisible in the results: the episode is re-derived from a fresh
    string-seeded RNG and the simulation seed from
    :func:`~repro.experiments.runner.derive_run_seed`.  Returns the
    unit's :class:`~repro.experiments.runner.EpisodeRun`.
    """
    faults.maybe_inject(kind, seed, instance, protocol)
    episode = builder(graph, random.Random(f"{seed}:{kind}:{instance}"))
    run_seed = derive_run_seed(seed, kind, instance)
    return run_episode(graph, episode, protocol, seed=run_seed)


# ----------------------------------------------------------------------
# Shared worker budget
# ----------------------------------------------------------------------


class WorkerBudget:
    """A machine-wide pool of worker slots shared by concurrent grids.

    When several campaigns execute at once (the service's concurrent
    lanes), each one sizing its own pool independently would
    oversubscribe the machine: K campaigns × W workers each.  Instead
    every supervisor draws from one shared budget: :meth:`acquire`
    grants ``min(requested, free)`` slots — fewer than asked under
    contention — **without blocking**, flooring the grant at one slot
    so no campaign ever starves outright (a one-slot grant runs the
    grid on the caller's own thread, so the floor costs one thread, not
    an extra worker process).  Worker count is result-invariant
    throughout the experiment stack, so a stingy grant changes only
    wall-clock time, never bytes.

    Thread-safe; allocation may transiently exceed ``total`` only
    through the one-slot floor.
    """

    def __init__(self, total: int) -> None:
        self.total = max(1, int(total))
        self._allocated = 0
        self._lock = threading.Lock()

    def acquire(self, requested: int) -> int:
        """Grant up to ``requested`` slots now; at least one."""
        requested = max(1, int(requested))
        with self._lock:
            free = self.total - self._allocated
            granted = max(1, min(requested, free))
            self._allocated += granted
            return granted

    def release(self, granted: int) -> None:
        """Return slots granted by :meth:`acquire`."""
        with self._lock:
            self._allocated = max(0, self._allocated - granted)

    def utilization(self) -> Dict[str, int]:
        """Operational snapshot: ``{"total", "allocated", "free"}``."""
        with self._lock:
            return {
                "total": self.total,
                "allocated": self._allocated,
                "free": max(0, self.total - self._allocated),
            }


# ----------------------------------------------------------------------
# Outcome types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt: why, and what the worker left behind."""

    #: ``"exception"`` (unit raised), ``"timeout"`` (attempt exceeded
    #: the wall-clock limit and the worker was killed), or
    #: ``"worker-death"`` (the worker process vanished mid-unit).
    cause: str
    #: Traceback text for exceptions, a description otherwise.
    detail: str


@dataclass(frozen=True)
class UnitFailure:
    """A unit that exhausted every attempt, with its full history."""

    index: int
    kind: str
    seed: int
    instance: int
    protocol: str
    attempts: Tuple[AttemptFailure, ...]

    def describe(self) -> str:
        causes = ", ".join(a.cause for a in self.attempts)
        return (
            f"unit {self.kind}:{self.seed}:{self.instance}:{self.protocol} "
            f"failed after {len(self.attempts)} attempt(s) [{causes}]"
        )


@dataclass
class SupervisedOutcome:
    """Everything a supervised campaign produced.

    ``results`` is positionally aligned with the submitted units;
    entries of terminally failed units are ``None`` and described in
    ``failures``.  ``executed`` counts attempts that actually simulated
    to completion; ``ledger_hits`` counts units answered from the
    ledger without computing.
    """

    results: List[Optional[object]]
    failures: List[UnitFailure] = field(default_factory=list)
    executed: int = 0
    ledger_hits: int = 0
    #: True when a cooperative stop (the supervisor's ``stop_event``)
    #: interrupted the grid with units still unresolved.  Every
    #: completed result — including those
    #: that were in flight when the stop arrived — is present in
    #: ``results`` (and in the ledger, when one is attached); the
    #: interrupted units are simply ``None`` without a failure record,
    #: so a rerun recomputes exactly them.
    stopped: bool = False

    @property
    def complete(self) -> bool:
        return not self.failures and not self.stopped


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(conn, graph_payload: Tuple[str, object]) -> None:
    """Worker loop: receive ``(index, unit)``, send back the outcome.

    ``graph_payload`` is how the campaign topology reaches the worker:
    ``("shm", segment_name)`` attaches the shared CSR segment by name,
    ``("bytes", csr_bytes)`` hands the worker the same encoding directly
    (only when the supervisor could not create a segment).  Either way
    the graph is served from read-only views of that one buffer.  The
    worker only ever *attaches* — segment ownership (and unlinking)
    stays with the supervisor, which is what makes a ``kill -9`` of any
    worker leak-free.

    The worker owns a private duplex pipe; a unit that raises reports
    ``(index, "error", traceback)`` and the worker survives for the
    next unit.  Only process death (or a ``None`` shutdown message)
    ends the loop — and death is exactly what the supervisor's
    sentinel watch detects.
    """
    faults.mark_worker_process()
    carrier, payload = graph_payload
    attached = None
    if carrier == "shm":
        attached = topology_shm.attach_graph(payload)
        graph = attached.graph
    else:
        graph = ASGraph._from_csr_base(_CSRBase.from_buffer(payload))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            index, unit = message
            try:
                with _cyclic_gc_paused():
                    result = run_unit(graph, *unit)
                conn.send((index, "ok", result))
            except Exception:
                conn.send((index, "error", traceback.format_exc()))
    finally:
        if attached is not None:
            del graph
            attached.close()


class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = ("process", "conn", "assignment", "last", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Unit index currently running in the worker, or None (idle).
        self.assignment: Optional[int] = None
        #: Unit index the worker was handed last (running or finished):
        #: its R-BGP twin start, if any, is parked in that process.
        self.last: Optional[int] = None
        #: Monotonic instant the running attempt times out, or None.
        self.deadline: Optional[float] = None


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


class Supervisor:
    """Runs a unit grid to completion: retry, timeout, backoff, stop.

    ``max_attempts``, ``unit_timeout`` and ``backoff_base`` are the
    fields of :class:`~repro.experiments.parallel.ParallelRunner`,
    documented there.  An in-process attempt cannot be interrupted, so
    ``unit_timeout`` binds pooled attempts only (a warning says so).

    There is one scheduling loop.  A grid with fewer than two worker
    slots (``workers < 2``, a one-slot budget grant, a single pending
    unit) runs it with a pool cap of zero: every attempt executes on
    the caller's thread under the same retry accounting and the same
    stop rules.  So does a grid on a host that cannot spawn processes.

    What the loop starts next is one rule too (:meth:`_next_eligible`):
    an idle worker is handed the R-BGP twin of the unit it ran last,
    so a pooled campaign shares twin starts the way one process does.
    """

    def __init__(
        self,
        graph: ASGraph,
        units: Sequence[WorkUnit],
        *,
        workers: int,
        max_attempts: int,
        unit_timeout: Optional[float],
        backoff_base: float,
        ledger: Optional[ResultLedger] = None,
        unit_keys: Optional[Sequence[str]] = None,
        stop_event: Optional[threading.Event] = None,
        on_progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[WorkerBudget] = None,
    ) -> None:
        self._graph = graph
        self._units: List[WorkUnit] = list(units)
        self._target_workers = workers
        #: With a shared budget attached, ``workers`` is a *request*:
        #: the grant acquired in :meth:`run` caps the actual pool size.
        self._budget = budget
        self._pool_cap = 0
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._max_attempts = max_attempts
        self._unit_timeout = unit_timeout
        self._backoff_base = backoff_base
        self._ledger = ledger
        if unit_keys is not None and len(unit_keys) != len(self._units):
            raise ValueError("unit_keys must align with units")
        self._keys = list(unit_keys) if unit_keys is not None else None

        n = len(self._units)
        self._results: List[Optional[object]] = [None] * n
        self._resolved = [False] * n
        self._n_resolved = 0
        self._attempts: List[List[AttemptFailure]] = [[] for _ in range(n)]
        self._not_before = [0.0] * n
        self._pending: Deque[int] = deque()
        self._twin = _twin_indices(self._units)
        self._failures: List[UnitFailure] = []
        self._executed = 0
        self._ledger_hits = 0
        self._workers: List[_Worker] = []
        #: Topology carrier handed to every spawned worker:
        #: ``("shm", name)`` or ``("bytes", csr_bytes)`` — see
        #: :func:`_worker_main`.  Set by :meth:`_publish_topology`
        #: before the first spawn; a grid that never spawns never
        #: encodes its topology.
        self._payload: Optional[Tuple[str, object]] = None
        self._shared: Optional[topology_shm.SharedGraph] = None
        self._spawn_failed = False
        self._timeout_warned = False
        #: Cooperative interrupt: settable from any thread (a SIGTERM
        #: handler, the service's cancel endpoint).  Once set, no new
        #: attempt starts — pooled or in-process — and backoff pauses
        #: end; in-flight attempts drain normally and their results are
        #: completed (and ledgered) before :meth:`run` returns a partial
        #: outcome with ``stopped=True``.
        self._stop = stop_event if stop_event is not None else threading.Event()
        self._on_progress = on_progress

    def _notify_progress(self) -> None:
        if self._on_progress is None:
            return
        try:
            self._on_progress(self._n_resolved, len(self._resolved))
        except Exception:
            logger.exception("progress callback raised; continuing")

    # -- bookkeeping ---------------------------------------------------

    def _resolve(self, index: int) -> None:
        self._resolved[index] = True
        self._n_resolved += 1

    def _complete(self, index: int, result: object) -> None:
        if self._resolved[index]:
            return
        self._results[index] = result
        self._resolve(index)
        self._executed += 1
        if self._ledger is not None and self._keys is not None:
            self._ledger.put(self._keys[index], result)
        self._notify_progress()

    def _attempt_failed(self, index: int, cause: str, detail: str) -> None:
        if self._resolved[index]:
            return
        records = self._attempts[index]
        records.append(AttemptFailure(cause=cause, detail=detail))
        _, kind, seed, instance, protocol = self._units[index]
        if len(records) >= self._max_attempts:
            failure = UnitFailure(
                index=index,
                kind=kind,
                seed=seed,
                instance=instance,
                protocol=protocol,
                attempts=tuple(records),
            )
            self._failures.append(failure)
            self._resolve(index)
            logger.warning("terminal failure: %s", failure.describe())
            self._notify_progress()
        else:
            retry = len(records)  # 1-based retry ordinal
            delay = self._backoff_base * 2.0 ** (retry - 1)
            self._not_before[index] = time.monotonic() + delay
            self._pending.append(index)
            logger.warning(
                "unit %s:%s:%s:%s attempt %d failed (%s); retrying in %.2fs",
                kind, seed, instance, protocol, retry, cause, delay,
            )

    def _run_attempt_inprocess(self, index: int) -> None:
        """One attempt on the caller's thread (no worker to hand it to)."""
        if self._unit_timeout is not None and not self._timeout_warned:
            self._timeout_warned = True
            logger.warning(
                "unit_timeout is not enforceable on the in-process path; "
                "attempts run to completion"
            )
        try:
            with _cyclic_gc_paused():
                result = run_unit(self._graph, *self._units[index])
        except Exception:
            self._attempt_failed(index, "exception", traceback.format_exc())
        else:
            self._complete(index, result)

    # -- ledger preload ------------------------------------------------

    def _preload_from_ledger(self) -> None:
        if self._ledger is None or self._keys is None:
            self._pending.extend(range(len(self._units)))
            return
        # A ledger that outlives one grid (the service's) first catches
        # up with whatever other writers appended since its last read.
        self._ledger.refresh()
        for index, key in enumerate(self._keys):
            if key in self._ledger:
                try:
                    self._results[index] = self._ledger.get(key)
                except KeyError:
                    pass  # indexed but no longer readable: a miss
                else:
                    self._resolve(index)
                    self._ledger_hits += 1
                    continue
            self._pending.append(index)

    # -- pool management -----------------------------------------------

    def _spawn_worker(self) -> Optional[_Worker]:
        """Start one worker; on spawn failure, remember and warn once."""
        if self._spawn_failed:
            return None
        context = multiprocessing.get_context()
        try:
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, self._payload),
                daemon=True,
            )
            process.start()
        except OSError as exc:
            # Narrow degradation point: only *pool creation* failures
            # (sandboxes without process support) fall back in-process;
            # worker-side crashes are supervised, never swallowed.
            self._spawn_failed = True
            logger.warning(
                "cannot spawn worker processes (%s); degrading to "
                "in-process execution", exc,
            )
            return None
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def _discard_worker(self, worker: _Worker, *, kill: bool) -> None:
        self._workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _shutdown_pool(self) -> None:
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in list(self._workers):
            self._discard_worker(worker, kill=True)

    # -- message handling ----------------------------------------------

    def _handle_message(self, worker: _Worker, message) -> None:
        index, status, payload = message
        if worker.assignment == index:
            worker.assignment = None
            worker.deadline = None
        if status == "ok":
            self._complete(index, payload)
        else:
            self._attempt_failed(index, "exception", payload)

    def _drain(self, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return
            except Exception:
                # A worker that died mid-send leaves a truncated pickle;
                # the sentinel path will charge its assignment.
                return
            self._handle_message(worker, message)

    # -- scheduling ----------------------------------------------------

    def _next_eligible(
        self, now: float, worker: Optional[_Worker]
    ) -> Optional[int]:
        """Take the unit ``worker`` should start now off the queue.

        ``worker`` is the idle worker about to be fed; ``None`` stands
        for one not spawned yet, or for this thread.  In order:

        1. the R-BGP twin of the unit that worker was handed last, if
           it is pending and out of backoff — the worker's process
           holds the twin's converged start (the runner's one-slot
           ``_RBGP_START_SLOT``), so the unit restores it instead of
           simulating it again;
        2. else the first unit out of backoff whose twin was not
           handed last to *another* live worker — that unit is held
           for rule 1 there;
        3. else the first unit out of backoff, held or not: a hold
           never idles a worker, and it ends by itself when the
           partner moves on, dies, is killed on a timeout, or the twin
           goes into backoff.

        Only the schedule depends on this; a unit's result does not
        depend on where or after what it ran.  With no pool nothing is
        ever held and the order is the queue's.
        """
        twin = self._twin
        wanted = (
            twin[worker.last]
            if worker is not None and worker.last is not None
            else None
        )
        if (
            wanted is not None
            and self._not_before[wanted] <= now
            and not self._resolved[wanted]
            and all(w.assignment != wanted for w in self._workers)
        ):
            # Neither resolved nor in flight: it is in the queue.
            self._pending.remove(wanted)
            return wanted
        held = {
            twin[w.last]
            for w in self._workers
            if w is not worker and w.last is not None
        }
        choice = None
        for position, index in enumerate(self._pending):
            if self._not_before[index] > now:
                continue
            if index not in held:
                choice = position
                break
            if choice is None:
                choice = position  # rule 3, unless rule 2 finds one
        if choice is None:
            return None
        index = self._pending[choice]
        del self._pending[choice]  # O(1) at the head: the rule
        return index

    def _earliest_backoff(self) -> Optional[float]:
        if not self._pending:
            return None
        return min(self._not_before[index] for index in self._pending)

    def _dispatch(self) -> None:
        """Start every attempt that can start now; none once stopped.

        An idle worker, or a new one under the pool cap, is handed the
        unit :meth:`_next_eligible` picks for it.  With no worker to be
        had — a cap of zero, a host that cannot spawn — the attempt
        runs on this thread.
        """
        while self._pending and not self._stop.is_set():
            worker = next(
                (w for w in self._workers if w.assignment is None), None
            )
            may_spawn = (
                worker is None
                and len(self._workers) < self._pool_cap
                and not self._spawn_failed
            )
            if worker is None and not may_spawn and self._workers:
                return  # every worker is busy
            index = self._next_eligible(time.monotonic(), worker)
            if index is None:
                return
            if may_spawn:
                if self._payload is None:
                    self._publish_topology()
                worker = self._spawn_worker()
            if worker is None:
                if not self._workers:
                    self._run_attempt_inprocess(index)
                    continue
                self._pending.appendleft(index)
                return
            try:
                worker.conn.send((index, self._units[index]))
            except (OSError, ValueError, BrokenPipeError):
                # The worker died between tasks; charge nothing, retire
                # it, and redispatch on the next loop pass.
                self._pending.appendleft(index)
                self._discard_worker(worker, kill=True)
                continue
            worker.assignment = worker.last = index
            worker.deadline = (
                time.monotonic() + self._unit_timeout
                if self._unit_timeout is not None
                else None
            )

    def _wait_timeout(self) -> Optional[float]:
        now = time.monotonic()
        instants = [
            w.deadline for w in self._workers if w.deadline is not None
        ]
        backoff = self._earliest_backoff()
        if backoff is not None and any(
            w.assignment is None for w in self._workers
        ):
            instants.append(backoff)
        if not instants:
            return None
        return max(0.0, min(instants) - now)

    def _reap_timeouts(self) -> None:
        if self._unit_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.assignment is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            self._drain(worker)
            if worker.assignment is None:
                continue  # the result arrived just in time
            index = worker.assignment
            worker.assignment = None
            self._discard_worker(worker, kill=True)
            self._attempt_failed(
                index,
                "timeout",
                f"attempt exceeded the {self._unit_timeout:g}s "
                "wall-clock limit; worker killed",
            )

    def _reap_deaths(self, dead: List[_Worker]) -> None:
        for worker in dead:
            # A result may have been sent before the process died.
            self._drain(worker)
            index = worker.assignment
            worker.assignment = None
            self._discard_worker(worker, kill=False)
            # Read after the discard's join: the sentinel fires when
            # the process ends, which can be before it is reaped, and
            # exitcode is None until then.
            exitcode = worker.process.exitcode
            if index is not None:
                self._attempt_failed(
                    index,
                    "worker-death",
                    f"worker process died (exit code {exitcode}) while "
                    "running the unit",
                )

    # -- main loop -----------------------------------------------------

    def _outcome(self) -> SupervisedOutcome:
        return SupervisedOutcome(
            results=self._results,
            failures=self._failures,
            executed=self._executed,
            ledger_hits=self._ledger_hits,
            stopped=(
                self._stop.is_set()
                and self._n_resolved < len(self._resolved)
            ),
        )

    def _publish_topology(self) -> None:
        """Publish the graph for zero-copy worker attach, if possible.

        When the segment cannot be created the same bytes travel over
        each worker's pipe instead.  Export failure is never fatal:
        the campaign still runs, just without the shared pages.
        """
        try:
            self._shared = topology_shm.share_graph(self._graph)
        except Exception as exc:
            logger.warning(
                "shared-memory topology export unavailable (%s); "
                "sending the topology bytes to each worker instead", exc,
            )
            self._payload = ("bytes", self._graph.csr_base().to_bytes())
        else:
            self._payload = ("shm", self._shared.name)

    def _run_grid(self) -> None:
        try:
            while self._pending or any(
                w.assignment is not None for w in self._workers
            ):
                self._dispatch()
                busy = [w for w in self._workers if w.assignment is not None]
                if not busy:
                    if self._stop.is_set() or not self._pending:
                        # Stopped: every in-flight unit has drained
                        # (completed and, with a ledger attached,
                        # persisted); the rest of the grid is left
                        # unresolved for a resume.
                        break
                    # Everything pending is backing off.  Event.wait,
                    # not sleep: a stop request cuts the pause short.
                    self._stop.wait(
                        max(0.0, self._earliest_backoff() - time.monotonic())
                    )
                    continue
                watch: Dict[object, _Worker] = {}
                for worker in busy:
                    watch[worker.conn] = worker
                    watch[worker.process.sentinel] = worker
                ready = connection.wait(
                    list(watch), timeout=self._wait_timeout()
                )
                dead: List[_Worker] = []
                for obj in ready:
                    worker = watch[obj]
                    if obj is worker.conn:
                        self._drain(worker)
                    elif worker in self._workers and worker not in dead:
                        dead.append(worker)
                self._reap_deaths([w for w in dead if w in self._workers])
                self._reap_timeouts()
        finally:
            self._shutdown_pool()
            if self._shared is not None:
                # Unlink *after* the pool is down, no matter how the
                # grid ended (completion, stop, worker massacre): the
                # supervisor is the single owner, so no campaign ever
                # leaves an orphaned segment behind.
                self._shared.destroy()
                self._shared = None
            self._payload = None
            # A twin-start snapshot whose twin never ran must not
            # outlive the grid that parked it.
            clear_twin_start_cache()

    def run(self) -> SupervisedOutcome:
        """Execute every unit; never raises for unit-level failures.

        A cooperative stop (the ``stop_event``) returns early with
        ``stopped=True`` on the outcome: completed units (and the
        structured failures so far) are all present, unrun units are
        ``None``, and a rerun — same grid, same ledger — recomputes
        exactly the remainder.

        With a shared :class:`WorkerBudget`, slots are acquired here —
        after the ledger preload, so a fully-ledgered resume holds zero
        slots — and released when the grid ends.  The grant (never more
        than the pending unit count needs) caps the pool.  One slot is
        the caller's own thread, and one pending unit needs no more, so
        either runs the grid with no worker processes.  Worker count is
        result-invariant, so contention shapes only the schedule.
        """
        self._preload_from_ledger()
        self._notify_progress()
        if not self._pending:
            return self._outcome()
        slots = self._target_workers
        granted = None
        if self._budget is not None:
            want = max(1, min(self._target_workers, len(self._pending)))
            slots = granted = self._budget.acquire(want)
        self._pool_cap = slots if slots >= 2 and len(self._pending) > 1 else 0
        # With no pool the simulations run here, and the collector
        # stays paused between them too (ledger puts, progress).
        paused = (
            _cyclic_gc_paused() if self._pool_cap == 0
            else contextlib.nullcontext()
        )
        try:
            with paused:
                self._run_grid()
        finally:
            if granted is not None:
                self._budget.release(granted)
        return self._outcome()
