"""The campaign service: HTTP daemon over the supervised pool.

``repro-stamp serve`` runs this long-lived daemon.  Clients submit
figure/flap campaign specs as JSON and poll for status and results:

* ``POST /campaigns`` — submit a spec.  Returns ``202`` with the
  campaign's content-hash id, ``200`` if that exact campaign already
  exists (idempotent resubmission), ``400`` with per-field errors on an
  invalid spec, ``429``/``503`` with ``Retry-After`` under overload or
  shutdown.
* ``GET /campaigns`` / ``GET /campaigns/{id}`` — status: lifecycle
  state, per-unit progress, the structured failure report.
* ``GET /campaigns/{id}/result`` — the canonical result document
  (``409`` until the campaign finishes).
* ``POST /campaigns/{id}/cancel`` — cooperative cancel: dispatch
  stops, in-flight units drain to the ledger, the campaign lands in
  ``cancelled`` (a resubmission requeues it and resumes from the
  ledger).
* ``GET /healthz`` (liveness) and ``GET /readyz`` (admission-ready).

Robustness model (see ``docs/service.md``):

* **Crash recovery.**  Every campaign is journaled durably *before*
  its 202 is acknowledged, and every state transition after; on start
  the service replays the journal, re-lists every campaign ever
  accepted, and requeues the non-terminal ones.  Completed units live
  in the shared result ledger, so a recovered campaign recomputes only
  what never finished — and its final result document is byte-identical
  to an uninterrupted run's, because the document is a pure function of
  the spec and the unit results (execution counters and timestamps are
  deliberately excluded).
* **Idempotent submission.**  The campaign id is the SHA-256 of the
  canonical spec document, so duplicate submissions — concurrent ones
  included — converge on one execution and one result.
* **Concurrent scheduling with lane isolation.**  ``--max-concurrent``
  executor lanes pull from the admission queue in FIFO order; each
  lane is an isolation domain, so a slow, poisoned, or cancelled
  campaign occupies only its own lane and never head-of-line-blocks
  the others.  All lanes draw worker slots from one shared
  :class:`~repro.experiments.supervisor.WorkerBudget` (``--workers``
  is the machine-wide total): a campaign asks for ``workers`` and the
  scheduler grants ``min(requested, available)`` — fewer under
  contention — which cannot change any result because worker count is
  result-invariant throughout the stack.
* **Admission control.**  The queue is bounded (``429`` beyond it,
  with a ``Retry-After`` computed from queue depth and recent campaign
  durations); body size is bounded (``413``); malformed specs are
  structured ``400``s; per-campaign execution knobs are clamped to
  server ceilings at admission.  With ``--auth-token`` (or
  ``REPRO_SERVICE_TOKEN``) set, mutating endpoints require a matching
  ``Authorization: Bearer`` header (``401`` otherwise); ``/healthz``
  and ``/readyz`` stay open for probes.
* **Journal rotation.**  With ``--journal-max-bytes`` set, a journal
  grown past the bound is atomically rewritten as one snapshot record
  (:meth:`~repro.service.journal.CampaignJournal.compact`); recovery
  reads snapshot+tail identically to a full replay.
* **Graceful shutdown.**  SIGTERM/SIGINT stops admissions (``503``),
  asks every running campaign to stop cooperatively, drains their
  in-flight units to the ledger, journals the interruptions and a
  checkpoint, and exits 0.  Interrupted campaigns resume on the
  next start — the journal replay requeues *every* non-terminal
  campaign, however many lanes were mid-flight at the crash.
"""

from __future__ import annotations

import hmac
import json
import logging
import math
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ServiceError, SpecValidationError
from repro.experiments.canonical import canonical_json
from repro.experiments.ledger import ResultLedger
from repro.experiments.parallel import FailureFigureData, ParallelRunner
from repro.experiments.scenarios import CAMPAIGNS
from repro.experiments.supervisor import UnitFailure, WorkerBudget
from repro.service.journal import CampaignJournal
from repro.service.spec import CampaignSpec, ServiceLimits
from repro.service.state import (
    CANCELLED,
    Campaign,
    DONE,
    FAILED,
    PARTIAL,
    QUEUED,
    REQUEUEABLE_STATES,
    RUNNING,
    TERMINAL_STATES,
)
from repro.topology.generators import generate_internet_topology

logger = logging.getLogger("repro.service.app")


class QueueFullError(ServiceError):
    """Admission refused: the bounded campaign queue is at capacity."""


class ShuttingDownError(ServiceError):
    """Admission refused: the service is draining for shutdown."""


class UnknownCampaignError(ServiceError):
    """No campaign with that id was ever accepted."""


class ResultNotReadyError(ServiceError):
    """The campaign exists but has not produced a result document."""

    def __init__(self, message: str, state: str) -> None:
        super().__init__(message)
        self.state = state


def failure_status(failure: UnitFailure) -> Dict[str, Any]:
    """Full structured failure record for status documents."""
    return {
        "kind": failure.kind,
        "seed": failure.seed,
        "instance": failure.instance,
        "protocol": failure.protocol,
        "attempts": [
            {"cause": a.cause, "detail": a.detail} for a in failure.attempts
        ],
    }


def _failure_summary(failure: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic failure identity for *result* documents.

    Attempt details carry tracebacks (pids, addresses, timings) that
    vary run to run; the result document keeps only what is a pure
    function of the spec and the fault — the unit identity and the
    failure causes — preserving the byte-identical result contract.
    """
    return {
        "kind": failure["kind"],
        "seed": failure["seed"],
        "instance": failure["instance"],
        "protocol": failure["protocol"],
        "causes": [a["cause"] for a in failure["attempts"]],
    }


def build_result_document(
    campaign_id: str, spec: CampaignSpec, data: FailureFigureData
) -> Dict[str, Any]:
    """The canonical result of one finished campaign.

    A pure function of the spec and the per-unit results: execution
    counters (``executed``/``ledger_hits``), timestamps, and attempt
    details are all excluded, so an interrupted-and-resumed campaign
    serves exactly the bytes an uninterrupted one would.
    """
    document: Dict[str, Any] = {
        "id": campaign_id,
        "spec": spec.canonical_document(),
        "samples": {p: len(runs) for p, runs in data.runs.items()},
        "mean_affected": data.mean_affected(),
        "mean_convergence_time": data.mean_convergence_time(),
        "mean_updates": data.mean_updates(),
        "mean_initial_updates": data.mean_initial_updates(),
        "mean_disruption": data.mean_disruption(),
        "failures": [
            _failure_summary(failure_status(f)) for f in data.failures
        ],
    }
    # The per-phase keys are part of the multi-phase families'
    # documents only: a figure kind has one phase, and its documents
    # stay byte-identical.
    if CAMPAIGNS[spec.kind].phase_legend is not None:
        document["n_phases"] = data.n_phases()
        document["mean_affected_by_phase"] = data.mean_affected_by_phase()
    return document


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one daemon instance needs to know.

    ``workers`` is the machine-wide worker-slot total shared by all
    lanes; ``max_concurrent`` is the lane count (campaigns executing
    at once); ``journal_max_bytes`` auto-rotates the journal once it
    grows past the bound (``None`` disables); ``auth_token`` gates
    mutating endpoints behind a bearer token (``None`` leaves the
    service open).
    """

    journal_path: Union[str, Path]
    ledger_path: Union[str, Path]
    workers: int = 1
    max_queue: int = 8
    max_body_bytes: int = 256 * 1024
    retry_after: int = 5
    max_concurrent: int = 2
    journal_max_bytes: Optional[int] = None
    auth_token: Optional[str] = None
    limits: ServiceLimits = ServiceLimits()


class CampaignService:
    """Journal-backed campaign registry plus its executor lanes.

    All public methods are thread-safe (the HTTP layer calls them from
    handler threads).  Execution happens on ``max_concurrent``
    dedicated lane threads pulling from the admission queue in FIFO
    order; every lane draws worker slots from one shared
    :class:`~repro.experiments.supervisor.WorkerBudget`, so total
    parallelism stays bounded by ``config.workers`` however many
    campaigns are in flight.  Lanes are isolation domains: a hung,
    poisoned, or cancelled campaign occupies only its own lane.  The
    journal is only ever written under the service lock, so lanes
    never interleave records.  The result ledger is one object for the
    service's lifetime, opened by the first campaign to run (so the
    service is ready before a ledger byte is read), shared by every
    lane under the ledger's own lock, caught up with other writers'
    appends before each campaign, and closed by :meth:`drain`.
    """

    def __init__(
        self, config: ServiceConfig, *, clock=time.time
    ) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._campaigns: Dict[str, Campaign] = {}
        self._specs: Dict[str, CampaignSpec] = {}
        self._queue: deque = deque()
        self._journal = CampaignJournal(config.journal_path)
        self._shutdown = threading.Event()
        self._budget = WorkerBudget(config.workers)
        #: lane index -> campaign id currently running there (or None).
        self._lanes: List[Optional[str]] = (
            [None] * max(1, int(config.max_concurrent))
        )
        #: Wall-clock durations of recently finished campaigns, for
        #: the Retry-After estimate.
        self._durations: deque = deque(maxlen=32)
        self._graphs: Dict[Tuple, Any] = {}
        self._graph_lock = threading.Lock()
        self._ledger: Optional[ResultLedger] = None
        self._ledger_lock = threading.Lock()
        self.recovered = 0
        self.resumed = 0
        self._recover()
        self._executors = [
            threading.Thread(
                target=self._executor_loop, args=(lane,),
                name=f"campaign-lane-{lane}", daemon=True,
            )
            for lane in range(len(self._lanes))
        ]

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        for thread in self._executors:
            thread.start()

    def begin_shutdown(self) -> None:
        """Stop admissions and ask every running campaign to stop."""
        with self._wake:
            if self._shutdown.is_set():
                return
            self._shutdown.set()
            for cid in self._lanes:
                if cid is not None:
                    self._campaigns[cid].stop_event.set()
            self._wake.notify_all()
        logger.info("shutdown requested: admissions closed, draining")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every lane to finish draining; then checkpoint.

        Returns ``True`` on a clean drain.  The checkpoint record is
        written either way — it marks how far the journal is known
        good, not that the stop was pretty.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        clean = True
        for thread in self._executors:
            if not thread.is_alive():
                continue
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                clean = False
                logger.warning(
                    "%s did not drain within %ss", thread.name, timeout
                )
        with self._lock:
            self._journal.append(
                {
                    "event": "checkpoint",
                    "ts": self._clock(),
                    "reason": "shutdown" if clean else "drain-timeout",
                }
            )
            self._journal.close()
        with self._ledger_lock:
            if self._ledger is not None:
                self._ledger.close()
        return clean

    def _journal_append(self, body: Dict[str, Any]) -> None:
        """Append one record; auto-rotate past the configured bound.

        Callers hold the service lock, so rotation never races another
        append — the journal has exactly one writer at a time.
        """
        self._journal.append(body)
        if self.config.journal_max_bytes is not None:
            self._journal.maybe_compact(self.config.journal_max_bytes)

    def _transition(
        self, campaign: Campaign, state: str, now: float, **fields: Any
    ) -> None:
        """The one place a campaign changes state (caller holds the lock).

        Advance in memory, then journal — always both, so "advanced"
        and "journaled" cannot drift apart.  ``fields`` are the extras
        of terminal records (counters, ``result``, ``error``).
        """
        campaign.advance(state, at=now)
        self._journal_append(
            {
                "event": "state",
                "id": campaign.campaign_id,
                "state": state,
                "ts": now,
                **fields,
            }
        )

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: re-list every campaign, requeue the
        unfinished ones (their completed units are in the ledger)."""
        entries, dropped = self._journal.replay()
        if dropped:
            logger.warning(
                "journal replay skipped %d torn/corrupt record(s)", dropped
            )
        now = self._clock()
        for cid, entry in entries.items():
            campaign = Campaign(
                campaign_id=cid,
                spec_document=entry["spec"],
                state=entry["state"],
                submitted_at=entry.get("ts") or 0.0,
                updated_at=entry.get("ts") or 0.0,
            )
            try:
                spec = CampaignSpec.from_document(entry["spec"])
            except SpecValidationError as exc:
                # A journal from a spec dialect this build no longer
                # accepts: keep the record visible, never run it.
                if campaign.state not in TERMINAL_STATES:
                    campaign.state = FAILED
                campaign.error = f"journaled spec no longer valid: {exc}"
                self._campaigns[cid] = campaign
                self.recovered += 1
                continue
            campaign.total_units = spec.total_units()
            campaign.executed = int(entry.get("executed") or 0)
            campaign.ledger_hits = int(entry.get("ledger_hits") or 0)
            failures = entry.get("failures")
            if isinstance(failures, list):
                campaign.failures = failures
            if entry.get("error") is not None:
                campaign.error = str(entry["error"])
            result = entry.get("result")
            if campaign.state in (DONE, PARTIAL) and isinstance(result, dict):
                campaign.result_json = canonical_json(result)
                campaign.resolved_units = campaign.total_units
            self._campaigns[cid] = campaign
            self._specs[cid] = spec
            self.recovered += 1
            if campaign.state not in TERMINAL_STATES:
                # queued stays queued; running was interrupted by a
                # crash — journal the requeue so the file matches what
                # the recovered service is about to do.
                if campaign.state == RUNNING:
                    self._transition(campaign, QUEUED, now)
                self._queue.append(cid)
                self.resumed += 1
        if self.recovered:
            logger.info(
                "recovered %d campaign(s) from journal; requeued %d",
                self.recovered, self.resumed,
            )

    # -- client operations ---------------------------------------------

    def submit(self, payload: Any) -> Tuple[bool, Dict[str, Any]]:
        """Admit one spec; returns ``(accepted, status_document)``.

        ``accepted`` is True when this call (re)queued an execution
        (HTTP 202) and False when it matched an existing campaign
        (HTTP 200).  Raises :class:`~repro.errors.SpecValidationError`,
        :class:`QueueFullError`, or :class:`ShuttingDownError`.
        """
        spec = CampaignSpec.parse(payload, self.config.limits)
        cid = spec.campaign_id()
        now = self._clock()
        with self._wake:
            if self._shutdown.is_set():
                raise ShuttingDownError("service is shutting down")
            existing = self._campaigns.get(cid)
            if existing is not None:
                if existing.state in REQUEUEABLE_STATES:
                    if len(self._queue) >= self.config.max_queue:
                        raise QueueFullError(
                            f"campaign queue is full "
                            f"({self.config.max_queue} waiting)"
                        )
                    existing.reset_for_requeue()
                    self._specs[cid] = spec
                    self._transition(existing, QUEUED, now)
                    self._queue.append(cid)
                    self._wake.notify_all()
                    return True, self._status_locked(cid)
                return False, self._status_locked(cid)
            if len(self._queue) >= self.config.max_queue:
                raise QueueFullError(
                    f"campaign queue is full "
                    f"({self.config.max_queue} waiting)"
                )
            campaign = Campaign(
                campaign_id=cid,
                spec_document=spec.canonical_document(),
                submitted_at=now,
                updated_at=now,
                total_units=spec.total_units(),
            )
            # Durable before acknowledged: the journal record hits disk
            # before the 202 leaves the building.
            self._journal_append(
                {
                    "event": "submitted",
                    "id": cid,
                    "spec": campaign.spec_document,
                    "ts": now,
                }
            )
            self._campaigns[cid] = campaign
            self._specs[cid] = spec
            self._queue.append(cid)
            self._wake.notify_all()
            return True, self._status_locked(cid)

    def status(self, cid: str) -> Dict[str, Any]:
        with self._lock:
            if cid not in self._campaigns:
                raise UnknownCampaignError(f"unknown campaign {cid}")
            return self._status_locked(cid)

    def list_campaigns(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._status_locked(cid) for cid in self._campaigns]

    def result(self, cid: str) -> str:
        """The canonical result JSON text, exactly as first computed."""
        with self._lock:
            campaign = self._campaigns.get(cid)
            if campaign is None:
                raise UnknownCampaignError(f"unknown campaign {cid}")
            if campaign.result_json is None:
                raise ResultNotReadyError(
                    f"campaign is {campaign.state}; no result document",
                    campaign.state,
                )
            return campaign.result_json

    def cancel(self, cid: str) -> Dict[str, Any]:
        """Cancel a queued campaign now, or a running one cooperatively."""
        now = self._clock()
        with self._lock:
            campaign = self._campaigns.get(cid)
            if campaign is None:
                raise UnknownCampaignError(f"unknown campaign {cid}")
            if campaign.state == QUEUED:
                try:
                    self._queue.remove(cid)
                except ValueError:
                    pass
                campaign.cancel_requested = True
                self._transition(campaign, CANCELLED, now)
            elif campaign.state == RUNNING:
                campaign.cancel_requested = True
                campaign.stop_event.set()
            elif campaign.state in TERMINAL_STATES:
                raise ServiceError(
                    f"campaign is already {campaign.state}"
                )
            return self._status_locked(cid)

    def ready(self) -> bool:
        return (
            any(t.is_alive() for t in self._executors)
            and not self._shutdown.is_set()
        )

    def readiness_document(self) -> Dict[str, Any]:
        """The JSON body of ``GET /readyz``: lanes, queue, budget."""
        with self._lock:
            lanes = []
            for lane, cid in enumerate(self._lanes):
                entry: Dict[str, Any] = {
                    "lane": lane, "busy": cid is not None,
                }
                if cid is not None:
                    entry["campaign"] = cid
                lanes.append(entry)
            return {
                "ready": self.ready(),
                "lanes": lanes,
                "queue_depth": len(self._queue),
                "worker_budget": self._budget.utilization(),
            }

    def retry_after_estimate(self) -> int:
        """Seconds a refused client should wait before retrying.

        Queue depth times the mean recent campaign duration, divided
        across the lanes; floored at 1s, capped at 300s.  With no
        finished campaigns yet there is nothing to extrapolate from,
        so the configured constant is used.
        """
        with self._lock:
            depth = len(self._queue) + sum(
                1 for cid in self._lanes if cid is not None
            )
            durations = list(self._durations)
        if not durations:
            return max(1, int(self.config.retry_after))
        mean = sum(durations) / len(durations)
        estimate = math.ceil((depth + 1) * mean / max(1, len(self._lanes)))
        return max(1, min(int(estimate), 300))

    def _status_locked(self, cid: str) -> Dict[str, Any]:
        campaign = self._campaigns[cid]
        position = None
        if campaign.state == QUEUED:
            try:
                position = list(self._queue).index(cid)
            except ValueError:
                position = None
        return campaign.status_document(queue_position=position)

    # -- execution -----------------------------------------------------

    def _executor_loop(self, lane: int) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._shutdown.is_set():
                    self._wake.wait(timeout=0.5)
                if self._shutdown.is_set():
                    return
                cid = self._queue.popleft()
                campaign = self._campaigns[cid]
                campaign.lane = lane
                self._lanes[lane] = cid
                self._transition(campaign, RUNNING, self._clock())
            started = time.monotonic()
            try:
                self._run_campaign(campaign)
            except Exception:
                logger.exception("campaign %s failed", cid[:12])
                self._finish_exception(campaign)
            finally:
                with self._lock:
                    self._lanes[lane] = None
                    campaign.lane = None
                    self._durations.append(
                        max(0.0, time.monotonic() - started)
                    )

    def _graph_for(self, spec: CampaignSpec):
        # Serialized across lanes: building the same topology twice
        # wastes minutes of CPU; the lock makes the second lane a
        # cache hit instead.
        with self._graph_lock:
            key = tuple(sorted(spec.topology.items()))
            graph = self._graphs.get(key)
            if graph is None:
                graph, _ = generate_internet_topology(spec.topology_config())
                self._graphs[key] = graph
            return graph

    def _shared_ledger(self) -> ResultLedger:
        # Serialized across lanes like the graph cache: the first
        # campaign reads the file, the lane beside it waits for the
        # index instead of building its own.
        with self._ledger_lock:
            if self._ledger is None:
                self._ledger = ResultLedger(self.config.ledger_path)
            return self._ledger

    def _run_campaign(self, campaign: Campaign) -> None:
        cid = campaign.campaign_id
        spec = self._specs.get(cid)
        if spec is None:
            spec = CampaignSpec.from_document(campaign.spec_document)
            self._specs[cid] = spec
        graph = self._graph_for(spec)
        requested = (
            spec.workers if spec.workers is not None else self.config.workers
        )
        runner = ParallelRunner(
            workers=requested,
            max_attempts=spec.retries + 1,
            unit_timeout=spec.unit_timeout,
            ledger=self._shared_ledger(),
            budget=self._budget,
        )

        def on_progress(resolved: int, total: int) -> None:
            with self._lock:
                campaign.total_units = total
                campaign.resolved_units = resolved
                campaign.updated_at = self._clock()

        outcome = runner.run_failure_comparison(
            spec.builder(),
            spec.unit_kind(),
            spec.seed,
            spec.instances,
            spec.protocols,
            graph,
            stop_event=campaign.stop_event,
            on_progress=on_progress,
        )
        self._finish(campaign, spec, outcome)

    def _finish(
        self, campaign: Campaign, spec: CampaignSpec, outcome: FailureFigureData
    ) -> None:
        cid = campaign.campaign_id
        now = self._clock()
        with self._wake:
            # Atomic with the state transition: a status read must never
            # see a non-running campaign still claiming a lane.
            campaign.lane = None
            campaign.executed = outcome.executed
            campaign.ledger_hits = outcome.ledger_hits
            campaign.failures = [failure_status(f) for f in outcome.failures]
            fields: Dict[str, Any] = {
                "executed": campaign.executed,
                "ledger_hits": campaign.ledger_hits,
                "failures": campaign.failures,
            }
            if outcome.stopped:
                if campaign.cancel_requested:
                    state = CANCELLED
                else:
                    # Graceful shutdown interrupted the run: back to the
                    # front of the queue, resumed on the next start.
                    state = QUEUED
                    self._queue.appendleft(cid)
            elif not any(outcome.runs.values()):
                state = FAILED
                campaign.error = "every unit failed terminally"
                fields["error"] = campaign.error
            else:
                state = PARTIAL if outcome.failures else DONE
                fields["result"] = build_result_document(cid, spec, outcome)
                campaign.result_json = canonical_json(fields["result"])
            self._transition(campaign, state, now, **fields)

    def _finish_exception(self, campaign: Campaign) -> None:
        import traceback

        now = self._clock()
        with self._lock:
            campaign.lane = None
            campaign.error = traceback.format_exc(limit=20)
            self._transition(campaign, FAILED, now, error=campaign.error)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class CampaignRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`CampaignService`."""

    server_version = "repro-stamp-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_body(
        self, status: int, body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        # One write for the whole reply.  ``end_headers()`` would flush
        # the header block and leave the body to a second write: two
        # small segments, the second held back by Nagle until the
        # client's delayed ACK of the first (~40 ms on every reply of
        # a kept-alive connection).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(
        self, status: int, document: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (canonical_json(document) + "\n").encode("ascii")
        self._send_body(status, body, extra_headers)

    def _send_error_json(
        self, status: int, message: str,
        details: Optional[List[Dict[str, str]]] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        document: Dict[str, Any] = {"error": message}
        if details is not None:
            document["details"] = details
        headers = (
            {"Retry-After": str(retry_after)}
            if retry_after is not None else None
        )
        self._send_json(status, document, headers)

    def _authorized(self) -> bool:
        """True when no token is configured or the request bears it.

        Constant-time comparison: an attacker probing byte by byte
        learns nothing from response timing.
        """
        token = self.service.config.auth_token
        if token is None:
            return True
        supplied = self.headers.get("Authorization", "")
        return hmac.compare_digest(supplied, f"Bearer {token}")

    def _read_json_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise _BadRequest("missing or invalid Content-Length")
        if length > self.service.config.max_body_bytes:
            raise _BodyTooLarge(
                f"body exceeds {self.service.config.max_body_bytes} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"{}")
        except ValueError:
            raise _BadRequest("request body is not valid JSON")

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802  (http.server convention)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, {"ok": True})
            elif path == "/readyz":
                document = self.service.readiness_document()
                if document["ready"]:
                    self._send_json(200, document)
                else:
                    self._send_json(
                        503, document,
                        {"Retry-After":
                         str(self.service.retry_after_estimate())},
                    )
            elif path == "/campaigns":
                self._send_json(
                    200, {"campaigns": self.service.list_campaigns()}
                )
            elif path.startswith("/campaigns/") and path.endswith("/result"):
                cid = path[len("/campaigns/"):-len("/result")]
                text = self.service.result(cid)
                self._send_body(200, (text + "\n").encode("ascii"))
            elif path.startswith("/campaigns/"):
                cid = path[len("/campaigns/"):]
                self._send_json(200, self.service.status(cid))
            else:
                self._send_error_json(404, f"no route {path}")
        except UnknownCampaignError as exc:
            self._send_error_json(404, str(exc))
        except ResultNotReadyError as exc:
            self._send_error_json(
                409, str(exc),
                retry_after=(
                    self.service.retry_after_estimate()
                    if exc.state not in TERMINAL_STATES else None
                ),
            )
        except Exception:
            logger.exception("GET %s failed", path)
            self._send_error_json(500, "internal error")

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            # Every POST mutates campaign state; all of them require
            # the bearer token when one is configured.  Probes and
            # reads (GET /healthz, /readyz, statuses) stay open.
            if not self._authorized():
                self._send_json(
                    401, {"error": "missing or invalid bearer token"},
                    {"WWW-Authenticate": "Bearer"},
                )
                return
            if path == "/campaigns":
                payload = self._read_json_body()
                accepted, document = self.service.submit(payload)
                self._send_json(202 if accepted else 200, document)
            elif path.startswith("/campaigns/") and path.endswith("/cancel"):
                cid = path[len("/campaigns/"):-len("/cancel")]
                self._send_json(202, self.service.cancel(cid))
            else:
                self._send_error_json(404, f"no route {path}")
        except SpecValidationError as exc:
            self._send_error_json(400, "invalid campaign spec", exc.details)
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except _BodyTooLarge as exc:
            self._send_error_json(413, str(exc))
        except QueueFullError as exc:
            self._send_error_json(
                429, str(exc),
                retry_after=self.service.retry_after_estimate(),
            )
        except ShuttingDownError as exc:
            self._send_error_json(
                503, str(exc),
                retry_after=self.service.retry_after_estimate(),
            )
        except UnknownCampaignError as exc:
            self._send_error_json(404, str(exc))
        except ServiceError as exc:
            self._send_error_json(409, str(exc))
        except Exception:
            logger.exception("POST %s failed", path)
            self._send_error_json(500, "internal error")


class _BadRequest(ServiceError):
    pass


class _BodyTooLarge(ServiceError):
    pass


class CampaignHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True  # lingering keep-alives never block shutdown

    def __init__(self, address, service: CampaignService) -> None:
        super().__init__(address, CampaignRequestHandler)
        self.service = service


# ----------------------------------------------------------------------
# Daemon entry point
# ----------------------------------------------------------------------


def run_service(
    host: str,
    port: int,
    config: ServiceConfig,
    *,
    drain_timeout: Optional[float] = 60.0,
    stream=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    Prints one ``listening on http://HOST:PORT`` line (flushed) once
    the socket is bound — with ``port=0`` this is how callers learn the
    real port.  On signal: admissions close, the in-flight campaign
    drains cooperatively, a checkpoint is journaled, and the process
    exits 0 (1 only if the drain timed out).
    """
    stream = stream if stream is not None else sys.stdout
    service = CampaignService(config)
    server = CampaignHTTPServer((host, port), service)
    service.start()

    def request_shutdown(signum, frame) -> None:
        service.begin_shutdown()
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, request_shutdown)
    bound_host, bound_port = server.server_address[:2]
    print(f"listening on http://{bound_host}:{bound_port}",
          file=stream, flush=True)
    if service.resumed:
        print(f"resuming {service.resumed} interrupted campaign(s)",
              file=stream, flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    service.begin_shutdown()
    clean = service.drain(drain_timeout)
    print("drained; journal checkpointed", file=stream, flush=True)
    return 0 if clean else 1
