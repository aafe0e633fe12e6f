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
* failed units are retried up to :attr:`RetryPolicy.max_attempts`
  times with exponential backoff, optionally degrading the final
  attempt to the in-process path;
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


@contextlib.contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector around simulation units.

    A protocol simulation allocates hundreds of thousands of tracked
    objects (routes, messages, event tuples); with the collector
    enabled, generational scans account for a double-digit percentage
    of end-to-end figure time.  Pausing is safe because every network
    is explicitly ``dispose()``d when its unit finishes — the cycles
    the collector would have to find are broken by hand, and memory
    returns through reference counting.  The previous collector state
    is restored on exit, even on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
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

    Every execution path — sequential, pooled, retried, degraded —
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

    def acquire(self, requested: int, *, minimum: int = 1) -> int:
        """Grant up to ``requested`` slots now; at least ``minimum``."""
        requested = max(1, int(requested))
        with self._lock:
            free = self.total - self._allocated
            granted = max(minimum, min(requested, free))
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
# Policy and outcome types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor reacts when a unit attempt fails.

    ``max_attempts`` bounds total attempts per unit (1 = no retries).
    ``unit_timeout`` is the per-attempt wall-clock limit in seconds
    (``None`` disables it; it is only enforceable for pooled attempts —
    an in-process attempt cannot be interrupted).  Retry ``k`` (1-based)
    waits ``backoff_base * backoff_factor**(k-1)`` seconds before
    redispatch.  With ``degrade_final`` set, a unit's last attempt runs
    in the supervisor process itself — the escape hatch when the pool
    environment (not the unit) is what keeps failing.
    """

    max_attempts: int = 2
    unit_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    degrade_final: bool = False


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
    #: True when a cooperative stop (:meth:`Supervisor.request_stop`
    #: or an external ``stop_event``) interrupted the grid with units
    #: still unresolved.  Every completed result — including those
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

    __slots__ = ("process", "conn", "assignment", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Unit index currently running in the worker, or None (idle).
        self.assignment: Optional[int] = None
        #: Monotonic instant the running attempt times out, or None.
        self.deadline: Optional[float] = None


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


class Supervisor:
    """Runs a unit grid to completion under a :class:`RetryPolicy`.

    ``workers <= 0`` (or a pool that cannot be created — see
    ``use_pool`` handling in :meth:`run`) executes everything
    in-process with the same retry accounting; timeouts then cannot be
    enforced and are ignored with a warning.
    """

    def __init__(
        self,
        graph: ASGraph,
        units: Sequence[WorkUnit],
        *,
        workers: int,
        policy: Optional[RetryPolicy] = None,
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
        self._pool_cap = workers
        self._policy = policy or RetryPolicy()
        if self._policy.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
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
        self._failures: List[UnitFailure] = []
        self._executed = 0
        self._ledger_hits = 0
        self._workers: List[_Worker] = []
        #: Topology carrier handed to every spawned worker:
        #: ``("shm", name)`` or ``("bytes", csr_bytes)`` — see
        #: :func:`_worker_main`.  Set by :meth:`_run_pool`.
        self._payload: Optional[Tuple[str, object]] = None
        self._spawn_failed = False
        #: Cooperative interrupt: settable from any thread (a SIGTERM
        #: handler, the service's cancel endpoint).  Once set, no new
        #: unit is dispatched; in-flight attempts drain normally and
        #: their results are completed (and ledgered) before the run
        #: returns a partial outcome.
        self._stop = stop_event if stop_event is not None else threading.Event()
        self._on_progress = on_progress

    # -- cooperative stop ----------------------------------------------

    def request_stop(self) -> None:
        """Ask the running grid to wind down (thread/signal-safe).

        Equivalent to setting the ``stop_event`` passed at
        construction: dispatch stops immediately, in-flight units run
        to completion and are drained to the results (and the ledger),
        and :meth:`run` returns a partial outcome with
        ``stopped=True``.  Already-completed units are never lost.
        """
        self._stop.set()

    def _stop_requested(self) -> bool:
        return self._stop.is_set()

    def _notify_progress(self) -> None:
        if self._on_progress is None:
            return
        try:
            self._on_progress(self._n_resolved, len(self._resolved))
        except Exception:
            logger.exception("progress callback raised; continuing")

    # -- bookkeeping ---------------------------------------------------

    def _unit_identity(self, index: int) -> Tuple[str, int, int, str]:
        _, kind, seed, instance, protocol = self._units[index]
        return kind, seed, instance, protocol

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
        kind, seed, instance, protocol = self._unit_identity(index)
        if len(records) >= self._policy.max_attempts:
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
            delay = (
                self._policy.backoff_base
                * self._policy.backoff_factor ** (retry - 1)
            )
            self._not_before[index] = time.monotonic() + delay
            self._pending.append(index)
            logger.warning(
                "unit %s:%s:%s:%s attempt %d failed (%s); retrying in %.2fs",
                kind, seed, instance, protocol, retry, cause, delay,
            )

    def _is_final_attempt(self, index: int) -> bool:
        return len(self._attempts[index]) == self._policy.max_attempts - 1

    def _run_attempt_inprocess(self, index: int) -> None:
        """One attempt in the supervisor process (degraded/pool-less)."""
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

    def _next_eligible(self, now: float) -> Optional[int]:
        for position, index in enumerate(self._pending):
            if self._not_before[index] <= now:
                del self._pending[position]  # O(1) at the head: the rule
                return index
        return None

    def _earliest_backoff(self) -> Optional[float]:
        if not self._pending:
            return None
        return min(self._not_before[index] for index in self._pending)

    def _dispatch(self) -> None:
        """Hand eligible pending units to idle (or new) workers."""
        while self._pending:
            now = time.monotonic()
            index = self._next_eligible(now)
            if index is None:
                return
            if self._policy.degrade_final and self._is_final_attempt(index):
                # Last chance: bypass the pool entirely.
                logger.warning(
                    "degrading final attempt of unit %s:%s:%s:%s to the "
                    "in-process path", *self._unit_identity(index),
                )
                self._run_attempt_inprocess(index)
                continue
            worker = next(
                (w for w in self._workers if w.assignment is None), None
            )
            if worker is None and len(self._workers) < self._pool_cap:
                worker = self._spawn_worker()
            if worker is None:
                if not self._workers:
                    # No pool at all: run the attempt where we stand.
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
            worker.assignment = index
            worker.deadline = (
                time.monotonic() + self._policy.unit_timeout
                if self._policy.unit_timeout is not None
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
        if self._policy.unit_timeout is None:
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
                f"attempt exceeded the {self._policy.unit_timeout:g}s "
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
                self._stop_requested()
                and self._n_resolved < len(self._resolved)
            ),
        )

    def _share_topology(self) -> Optional[topology_shm.SharedGraph]:
        """Publish the graph for zero-copy worker attach, if possible.

        Returns the owning handle (to destroy in the pool's
        ``finally``) or ``None`` when the segment cannot be created —
        the same bytes then travel over each worker's pipe.  Export
        failure is never fatal: the campaign still runs, just without
        the shared pages.
        """
        try:
            return topology_shm.share_graph(self._graph)
        except Exception as exc:
            logger.warning(
                "shared-memory topology export unavailable (%s); "
                "sending the topology bytes to each worker instead", exc,
            )
            return None

    def _run_pool(self) -> None:
        shared = self._share_topology()
        if shared is not None:
            self._payload = ("shm", shared.name)
        else:
            self._payload = ("bytes", self._graph.csr_base().to_bytes())
        try:
            while self._pending or any(
                w.assignment is not None for w in self._workers
            ):
                stopping = self._stop_requested()
                if not stopping:
                    self._dispatch()
                busy = [w for w in self._workers if w.assignment is not None]
                if stopping and not busy:
                    # Every in-flight unit has drained (completed and,
                    # with a ledger attached, persisted); the rest of
                    # the grid is left unresolved for a resume.
                    break
                if not busy:
                    if not self._pending:
                        break
                    backoff = self._earliest_backoff()
                    if backoff is not None and not any(
                        w.assignment is None for w in self._workers
                    ) and not self._spawn_failed:
                        # Dispatch will spawn/assign next pass.
                        continue
                    if backoff is not None:
                        # Event.wait, not sleep: a stop request cuts
                        # the backoff pause short.
                        self._stop.wait(max(0.0, backoff - time.monotonic()))
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
            if shared is not None:
                # Unlink *after* the pool is down, no matter how the
                # grid ended (completion, stop, worker massacre): the
                # supervisor is the single owner, so no campaign ever
                # leaves an orphaned segment behind.
                shared.destroy()
            self._payload = None
            clear_twin_start_cache()

    def _run_inprocess(self) -> None:
        if self._policy.unit_timeout is not None:
            logger.warning(
                "unit_timeout is not enforceable on the in-process path; "
                "attempts run to completion"
            )
        try:
            with _cyclic_gc_paused():
                while self._pending:
                    if self._stop_requested():
                        # Between units is the only interruption point
                        # on this path (an attempt cannot be unwound);
                        # everything already completed stays completed.
                        break
                    now = time.monotonic()
                    index = self._next_eligible(now)
                    if index is None:
                        earliest = self._earliest_backoff()
                        # Event.wait, not sleep: a stop request cuts
                        # the backoff pause short.
                        self._stop.wait(max(0.0, earliest - now))
                        continue
                    self._run_attempt_inprocess(index)
        finally:
            # A twin-start snapshot whose twin never ran must not
            # outlive the grid that parked it.
            clear_twin_start_cache()

    def run(self) -> SupervisedOutcome:
        """Execute every unit; never raises for unit-level failures.

        A cooperative stop (see :meth:`request_stop`) returns early
        with ``stopped=True`` on the outcome: completed units (and the
        structured failures so far) are all present, unrun units are
        ``None``, and a rerun — same grid, same ledger — recomputes
        exactly the remainder.

        With a shared :class:`WorkerBudget`, slots are acquired here —
        after the ledger preload, so a fully-ledgered resume holds zero
        slots — and released when the grid ends.  The grant (never more
        than the pending unit count needs) caps the pool; a one-slot
        grant degrades to the in-process path.  Worker count is
        result-invariant, so contention shapes only the schedule.
        """
        self._preload_from_ledger()
        self._notify_progress()
        if not self._pending:
            return self._outcome()
        granted = None
        if self._budget is not None:
            want = max(1, min(self._target_workers, len(self._pending)))
            granted = self._budget.acquire(want)
            self._pool_cap = granted
        try:
            if self._pool_cap >= 2 and len(self._pending) > 1:
                self._run_pool()
            else:
                self._run_inprocess()
        finally:
            if granted is not None:
                self._budget.release(granted)
        return self._outcome()
