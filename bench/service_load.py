"""Closed-loop load generator for the ``service_mixed`` workload.

One process, ``clients`` threads, one request in flight each: a client
sends its next request only after the previous campaign finished
(callers that each wait for a reply make a closed loop).  The sessions
run in phases — every client finishes a phase before the next starts —
so the harness can sample the host's pace between phases, while nothing
else runs.  The same session sequence drives the real daemon over
loopback HTTP (untraced rounds) and an in-process
:class:`CampaignService` (the traced pass) through the two client
classes below.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: The 62-AS topology every service campaign runs on: small on purpose,
#: so HTTP, spec parsing, journal fsyncs, lane hand-off, ledger writes
#: and polling are most of a campaign's latency and the sim core is not.
TINY_TOPOLOGY = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
PROTOCOLS = ["bgp", "stamp"]
TERMINAL_STATES = frozenset({"done", "partial", "failed", "cancelled"})
POLL_INTERVAL_S = 0.010
CAMPAIGN_TIMEOUT_S = 60.0


def session_spec(seed: int, client: int, session: int) -> Dict[str, Any]:
    """The campaign session ``session`` of ``client`` submits."""
    spec: Dict[str, Any] = {
        "kind": "flap" if session % 4 == 3 else "fig2",
        "seed": seed * 100_000 + client * 1_000 + session,
        "instances": 2,
        "protocols": list(PROTOCOLS),
        "topology": dict(TINY_TOPOLOGY),
    }
    if spec["kind"] == "flap":
        spec["period"] = 5
        spec["flaps"] = 2
    return spec


class HttpClient:
    """One client of the daemon over loopback: a connection per request.

    That is what ``curl`` and ``urllib`` (the repo's own smoke check)
    do.  On a kept-alive connection every reply stalls ~44 ms here —
    the handler writes headers and body as two segments with Nagle on,
    and the client's delayed ACK holds the second — which would
    quantize every latency this workload exists to resolve.
    """

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)

    def _request(self, method: str, path: str, body=None) -> Tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        connection = http.client.HTTPConnection(*self._address, timeout=30)
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def submit(self, spec) -> Tuple[int, Dict[str, Any]]:
        status, payload = self._request("POST", "/campaigns", spec)
        return status, json.loads(payload)

    def status(self, cid: str) -> Dict[str, Any]:
        return json.loads(self._request("GET", f"/campaigns/{cid}")[1])

    def result(self, cid: str) -> Tuple[int, bytes]:
        return self._request("GET", f"/campaigns/{cid}/result")

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._request("GET", path)


class InprocClient:
    """The same three operations, straight into a ``CampaignService``.

    Maps the service's exceptions to the status codes its HTTP layer
    answers with, so the session driver cannot tell the two apart.
    """

    def __init__(self, service) -> None:
        self._service = service

    def submit(self, spec) -> Tuple[int, Dict[str, Any]]:
        from repro.errors import SpecValidationError
        from repro.service.app import QueueFullError, ShuttingDownError

        try:
            accepted, document = self._service.submit(spec)
        except SpecValidationError as exc:
            return 400, {"error": str(exc)}
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ShuttingDownError as exc:
            return 503, {"error": str(exc)}
        return (202 if accepted else 200), document

    def status(self, cid: str) -> Dict[str, Any]:
        return self._service.status(cid)

    def result(self, cid: str) -> Tuple[int, bytes]:
        return 200, (self._service.result(cid) + "\n").encode("ascii")


@dataclass
class CampaignSample:
    """Client-side timings of one campaign, submit to fetched result."""

    ack_ms: float
    done_s: float
    polls: int
    poll_ms: List[float]
    fetch_ms: float
    units: int
    executed: int
    ledger_hits: int


@dataclass
class ClientLog:
    """Everything one client thread saw."""

    samples: List[CampaignSample] = field(default_factory=list)
    #: (campaign id, result body) in session order.
    results: List[Tuple[str, bytes]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def _run_campaign(client, spec, log: ClientLog) -> Dict[str, Any]:
    """Submit, poll to a terminal state, fetch the result; one operation."""
    started = time.perf_counter()
    status, document = client.submit(spec)
    ack_ms = (time.perf_counter() - started) * 1e3
    if status in (429, 503):
        log.refused += 1
    if not log.check(status == 202, f"submit seed={spec['seed']}: HTTP {status}"):
        return {}
    cid = document["id"]
    poll_ms: List[float] = []
    while True:
        time.sleep(POLL_INTERVAL_S)
        polled = time.perf_counter()
        document = client.status(cid)
        poll_ms.append((time.perf_counter() - polled) * 1e3)
        if document["state"] in TERMINAL_STATES:
            break
        if time.perf_counter() - started > CAMPAIGN_TIMEOUT_S:
            break
    done_s = time.perf_counter() - started
    fetching = time.perf_counter()
    status, body = client.result(cid)
    fetch_ms = (time.perf_counter() - fetching) * 1e3
    log.check(
        document["state"] == "done" and status == 200,
        f"campaign {cid[:12]}: state {document['state']}, result HTTP {status}",
    )
    log.results.append((cid, body))
    log.samples.append(
        CampaignSample(
            ack_ms=ack_ms, done_s=done_s, polls=len(poll_ms), poll_ms=poll_ms,
            fetch_ms=fetch_ms, units=document["progress"]["total_units"],
            executed=document["executed"], ledger_hits=document["ledger_hits"],
        )
    )
    return document


def _session(client, spec, session: int, log: ClientLog) -> None:
    document = _run_campaign(client, spec, log)
    if not document:
        return
    if session % 5 == 0:
        # The idempotent read path: the identical campaign, its
        # protocols listed in the other order, is the same campaign.
        again = dict(spec, protocols=list(reversed(PROTOCOLS)))
        status, repeat = client.submit(again)
        log.check(
            status == 200 and repeat.get("id") == document["id"],
            f"resubmit seed={spec['seed']}: HTTP {status}",
        )
    if session % 5 == 1:
        # Partial sharing through the ledger: the first two instances
        # of the doubled campaign are already computed.
        wider = _run_campaign(client, dict(spec, instances=4), log)
        log.check(
            wider.get("executed") == 4 and wider.get("ledger_hits") == 4,
            f"sharing seed={spec['seed']}: executed "
            f"{wider.get('executed')}, ledger_hits {wider.get('ledger_hits')}",
        )


def phase_bounds(sessions: int, phases: int) -> List[Tuple[int, int]]:
    """Split ``range(sessions)`` into ``phases`` contiguous slices."""
    edges = [round(sessions * k / phases) for k in range(phases + 1)]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def run_phase(client, seed: int, logs: List[ClientLog], first: int, last: int) -> float:
    """Sessions ``first..last-1`` of every client, side by side; returns
    the phase's makespan.

    One thread per entry of ``logs``; ``client`` holds no per-thread
    state, so the threads share it.  A thread that raises is recorded as
    a failed operation — the other keeps going and the round still
    reports.
    """
    def body(index: int) -> None:
        log = logs[index]
        try:
            for session in range(first, last):
                _session(client, session_spec(seed, index, session), session, log)
        except Exception:
            log.check(False, traceback.format_exc(limit=5))

    threads = [
        threading.Thread(target=body, args=(index,), name=f"client-{index}")
        for index in range(len(logs))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def results_digest(logs: List[ClientLog]) -> str:
    """sha256 over every result document, in client then session order."""
    digest = hashlib.sha256()
    for log in logs:
        for _, body in log.results:
            digest.update(body)
    return digest.hexdigest()
