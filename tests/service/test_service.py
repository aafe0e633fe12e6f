"""Integration tests of the campaign service over real HTTP.

Each fixture boots the actual :class:`CampaignHTTPServer` on an
ephemeral port and talks to it with a plain HTTP client — the same
surface a curl user sees.  Campaigns run on the tiny 62-AS topology so
a full grid is a few hundred milliseconds.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.ledger import ResultLedger
from repro.service.app import (
    CampaignHTTPServer,
    CampaignService,
    ServiceConfig,
)

TINY_TOPOLOGY = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
SPEC = {
    "kind": "fig2",
    "instances": 2,
    "protocols": ["bgp", "stamp"],
    "topology": TINY_TOPOLOGY,
}

#: A raw request's ``Content-Length`` that matches its body.
HONEST = "honest"


class ServiceClient:
    """One live service instance plus a blocking JSON client for it."""

    def __init__(
        self, tmp_path, *, start_executor=True, clock=time.time,
        **config_overrides,
    ):
        settings = dict(
            journal_path=tmp_path / "journal.jsonl",
            ledger_path=tmp_path / "ledger.jsonl",
            workers=1,
        )
        settings.update(config_overrides)
        self.service = CampaignService(ServiceConfig(**settings), clock=clock)
        self.server = CampaignHTTPServer(("127.0.0.1", 0), self.service)
        if start_executor:
            self.service.start()
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        self.base = f"http://127.0.0.1:{self.server.server_address[1]}"

    def request(self, method, path, body=None, raw=False, headers=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = response.read()
                status, headers = response.status, response.headers
        except urllib.error.HTTPError as error:
            payload, status, headers = error.read(), error.code, error.headers
        if raw:
            return status, payload, headers
        return status, json.loads(payload), headers

    def wait_terminal(self, cid, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, doc, _ = self.request("GET", f"/campaigns/{cid}")
            if doc["state"] in ("done", "partial", "failed", "cancelled"):
                return doc
            time.sleep(0.02)
        raise AssertionError(f"campaign {cid} never finished: {doc}")

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.begin_shutdown()
        self.service.drain(timeout=30)


@pytest.fixture
def client(tmp_path):
    fixture = ServiceClient(tmp_path)
    yield fixture
    fixture.close()


@pytest.fixture
def parked(tmp_path):
    """A service whose executor never starts: queue state is frozen."""
    fixture = ServiceClient(tmp_path, start_executor=False, max_queue=2)
    yield fixture
    fixture.server.shutdown()
    fixture.server.server_close()


class TestHappyPath:
    def test_submit_poll_result(self, client):
        status, doc, _ = client.request("POST", "/campaigns", SPEC)
        assert status == 202
        assert doc["state"] in ("queued", "running")
        cid = doc["id"]
        final = client.wait_terminal(cid)
        assert final["state"] == "done"
        assert final["progress"] == {
            "total_units": 4, "resolved_units": 4, "failed_units": 0,
        }
        status, result, _ = client.request("GET", f"/campaigns/{cid}/result")
        assert status == 200
        assert result["id"] == cid
        assert result["samples"] == {"bgp": 2, "stamp": 2}
        assert set(result["mean_affected"]) == {"bgp", "stamp"}
        # Execution bookkeeping lives in status, never in the result.
        assert "executed" not in result and "ledger_hits" not in result

    def test_result_bytes_are_stable_across_reads(self, client):
        _, doc, _ = client.request("POST", "/campaigns", SPEC)
        client.wait_terminal(doc["id"])
        _, first, _ = client.request(
            "GET", f"/campaigns/{doc['id']}/result", raw=True
        )
        _, second, _ = client.request(
            "GET", f"/campaigns/{doc['id']}/result", raw=True
        )
        assert first == second

    def test_health_and_ready(self, client):
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/readyz")[0] == 200

    def test_keep_alive_replies_do_not_stall(self, client):
        """Replies leave in one write: on a reused connection a
        header/body split is held back by Nagle until the client's
        delayed ACK, ~40 ms per request."""
        import http.client
        import statistics

        host, port = client.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            elapsed = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.010, elapsed

    def test_campaign_listing(self, client):
        _, doc, _ = client.request("POST", "/campaigns", SPEC)
        _, listing, _ = client.request("GET", "/campaigns")
        assert [c["id"] for c in listing["campaigns"]] == [doc["id"]]


class TestIdempotentSubmission:
    def test_resubmission_returns_the_existing_campaign(self, client):
        status1, doc1, _ = client.request("POST", "/campaigns", SPEC)
        status2, doc2, _ = client.request("POST", "/campaigns", SPEC)
        assert status1 == 202
        assert status2 == 200
        assert doc1["id"] == doc2["id"]

    def test_concurrent_same_spec_submissions_execute_once(self, client):
        statuses = []
        barrier = threading.Barrier(6)

        def submit():
            barrier.wait()
            status, doc, _ = client.request("POST", "/campaigns", SPEC)
            statuses.append((status, doc["id"]))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(s for s, _ in statuses) == [200] * 5 + [202]
        assert len({cid for _, cid in statuses}) == 1
        cid = statuses[0][1]
        final = client.wait_terminal(cid)
        # One execution: the grid was computed exactly once.
        assert final["executed"] + final["ledger_hits"] == 4
        assert final["ledger_hits"] == 0
        _, listing, _ = client.request("GET", "/campaigns")
        assert len(listing["campaigns"]) == 1

    def test_resubmitting_a_finished_campaign_serves_the_result(self, client):
        _, doc, _ = client.request("POST", "/campaigns", SPEC)
        client.wait_terminal(doc["id"])
        status, again, _ = client.request("POST", "/campaigns", SPEC)
        assert status == 200
        assert again["state"] == "done"


class TestAdmissionControl:
    def test_invalid_spec_is_a_structured_400(self, client):
        status, doc, _ = client.request(
            "POST", "/campaigns", {"kind": "bogus", "instances": -1}
        )
        assert status == 400
        assert doc["error"] == "invalid campaign spec"
        assert {d["field"] for d in doc["details"]} == {"kind", "instances"}

    def test_unparseable_body_is_a_400(self, client):
        request = urllib.request.Request(
            client.base + "/campaigns", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_is_rejected(self, tmp_path):
        fixture = ServiceClient(tmp_path, max_body_bytes=64)
        try:
            status, doc, _ = fixture.request(
                "POST", "/campaigns",
                {"kind": "fig2", "protocols": ["bgp"] * 200},
            )
            assert status == 413
        finally:
            fixture.close()

    @pytest.mark.parametrize(
        "length, body, status",
        [
            ("-1", b"{}", 400),  # int() took it; read(-1) waited for EOF
            ("+2", b"{}", 400),
            ("1e3", b"{}", 400),
            ("abc", b"{}", 400),
            ("", b"{}", 400),
            (None, b"{}", 400),
            (str(256 * 1024 + 1), b"", 413),
            ("99999999999999999999", b"", 413),
            (HONEST, b'{"kind": "fig2", "inst', 400),  # truncated JSON
            (HONEST, b'{"kind": "\xff\xfe"}', 400),  # not UTF-8
            (HONEST, b"[1, 2]", 400),
            (HONEST, b"42", 400),
            (HONEST, b'"fig2"', 400),
            (HONEST, b"null", 400),
        ],
        ids=[
            "negative", "plus-sign", "exponent", "letters", "empty",
            "missing", "over-cap", "huge", "truncated-json", "non-utf8",
            "array", "number", "string", "null",
        ],
    )
    def test_malformed_request_is_refused_promptly(
        self, client, length, body, status
    ):
        """Raw bytes over a kept-alive socket: every malformed header
        or body is answered with a 4xx, never left hanging."""
        import socket

        host, port = client.server.server_address[:2]
        if length is HONEST:
            length = str(len(body))
        head = "POST /campaigns HTTP/1.1\r\nHost: test\r\n"
        if length is not None:
            head += f"Content-Length: {length}\r\n"
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(head.encode("ascii") + b"\r\n" + body)
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == str(status).encode(), status_line

    def test_full_queue_is_429_with_retry_after(self, parked):
        specs = [dict(SPEC, seed=i) for i in range(3)]
        assert parked.request("POST", "/campaigns", specs[0])[0] == 202
        assert parked.request("POST", "/campaigns", specs[1])[0] == 202
        status, doc, headers = parked.request("POST", "/campaigns", specs[2])
        assert status == 429
        assert "queue is full" in doc["error"]
        assert headers["Retry-After"]

    def test_overload_never_disturbs_the_inflight_campaign(self, tmp_path):
        # One lane makes the overload deterministic: the flood cannot
        # drain through a second lane while the control runs.
        fixture = ServiceClient(tmp_path, max_queue=1, max_concurrent=1)
        try:
            _, doc, _ = fixture.request(
                "POST", "/campaigns", dict(SPEC, instances=40)
            )
            cid = doc["id"]
            # Flood with distinct specs until the queue refuses.
            refused = 0
            for seed in range(1, 30):
                status, _, _ = fixture.request(
                    "POST", "/campaigns", dict(SPEC, seed=seed)
                )
                if status == 429:
                    refused += 1
            assert refused > 0
            final = fixture.wait_terminal(cid)
            assert final["state"] == "done"
            assert final["progress"]["failed_units"] == 0
        finally:
            fixture.close()

    def test_unknown_campaign_is_404(self, client):
        assert client.request("GET", "/campaigns/deadbeef")[0] == 404
        assert client.request("GET", "/campaigns/deadbeef/result")[0] == 404
        assert client.request("POST", "/campaigns/deadbeef/cancel")[0] == 404

    def test_result_before_finish_is_409_with_retry_after(self, parked):
        _, doc, _ = parked.request("POST", "/campaigns", SPEC)
        status, body, headers = parked.request(
            "GET", f"/campaigns/{doc['id']}/result"
        )
        assert status == 409
        assert headers["Retry-After"]

    def test_unknown_route_is_404(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/nope")[0] == 404

    def test_readyz_is_503_without_an_executor(self, parked):
        status, doc, headers = parked.request("GET", "/readyz")
        assert status == 503
        assert headers["Retry-After"]


class TestShutdown:
    def test_admissions_close_with_503(self, client):
        client.service.begin_shutdown()
        status, doc, headers = client.request("POST", "/campaigns", SPEC)
        assert status == 503
        assert "shutting down" in doc["error"]
        assert headers["Retry-After"]
        assert client.request("GET", "/readyz")[0] == 503
        # Reads keep working during the drain.
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/campaigns")[0] == 200


class TestCancel:
    def test_cancel_queued_campaign(self, parked):
        _, doc, _ = parked.request("POST", "/campaigns", SPEC)
        status, cancelled, _ = parked.request(
            "POST", f"/campaigns/{doc['id']}/cancel"
        )
        assert status == 202
        assert cancelled["state"] == "cancelled"
        # Cancelling again is a conflict.
        assert parked.request(
            "POST", f"/campaigns/{doc['id']}/cancel"
        )[0] == 409

    def test_cancelled_campaign_requeues_on_resubmit(self, parked):
        _, doc, _ = parked.request("POST", "/campaigns", SPEC)
        parked.request("POST", f"/campaigns/{doc['id']}/cancel")
        status, requeued, _ = parked.request("POST", "/campaigns", SPEC)
        assert status == 202
        assert requeued["id"] == doc["id"]
        assert requeued["state"] == "queued"

    def test_cancel_running_campaign_drains_and_resumes(self, client):
        big = dict(SPEC, instances=150, protocols=["bgp"])
        _, doc, _ = client.request("POST", "/campaigns", big)
        cid = doc["id"]
        # Wait until it is demonstrably mid-run, then cancel.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, status_doc, _ = client.request("GET", f"/campaigns/{cid}")
            if (
                status_doc["state"] == "running"
                and status_doc["progress"]["resolved_units"] >= 2
            ):
                break
            time.sleep(0.01)
        client.request("POST", f"/campaigns/{cid}/cancel")
        final = client.wait_terminal(cid)
        assert final["state"] == "cancelled"
        resolved_at_cancel = final["progress"]["resolved_units"]
        assert 0 < resolved_at_cancel < 150
        # Resubmission resumes from the ledger: the cancelled units'
        # work is answered from disk, only the remainder recomputes.
        status, requeued, _ = client.request("POST", "/campaigns", big)
        assert status == 202
        final = client.wait_terminal(cid)
        assert final["state"] == "done"
        assert final["ledger_hits"] >= resolved_at_cancel
        assert final["executed"] + final["ledger_hits"] == 150


class TestRecovery:
    def test_finished_campaigns_survive_a_restart(self, tmp_path):
        first = ServiceClient(tmp_path)
        try:
            _, doc, _ = first.request("POST", "/campaigns", SPEC)
            cid = doc["id"]
            first.wait_terminal(cid)
            _, original, _ = first.request(
                "GET", f"/campaigns/{cid}/result", raw=True
            )
        finally:
            first.close()
        second = ServiceClient(tmp_path)
        try:
            status, doc, _ = second.request("GET", f"/campaigns/{cid}")
            assert status == 200
            assert doc["state"] == "done"
            _, recovered, _ = second.request(
                "GET", f"/campaigns/{cid}/result", raw=True
            )
            assert recovered == original
            # And resubmission still converges on the stored result.
            status, doc, _ = second.request("POST", "/campaigns", SPEC)
            assert status == 200 and doc["state"] == "done"
        finally:
            second.close()

    def test_queued_campaigns_resume_on_restart(self, tmp_path):
        parked = ServiceClient(tmp_path, start_executor=False, max_queue=4)
        _, doc, _ = parked.request("POST", "/campaigns", SPEC)
        cid = doc["id"]
        parked.server.shutdown()
        parked.server.server_close()
        # No drain, no checkpoint: this is the crash case.
        revived = ServiceClient(tmp_path)
        try:
            assert revived.service.recovered == 1
            assert revived.service.resumed == 1
            final = revived.wait_terminal(cid)
            assert final["state"] == "done"
        finally:
            revived.close()


def _descriptors_on(path):
    """This process's open descriptors naming ``path`` (Linux /proc)."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, already gone
            continue
        if target == str(path):
            held.append(int(fd))
    return held


class TestSharedLedger:
    """One ledger object per daemon: opened by the first campaign,
    shared by the lanes, caught up before every campaign, closed by
    ``drain()``."""

    def _run(self, client, spec):
        status, doc, _ = client.request("POST", "/campaigns", spec)
        assert status == 202
        final = client.wait_terminal(doc["id"])
        assert final["state"] == "done"
        _, result, _ = client.request(
            "GET", f"/campaigns/{doc['id']}/result", raw=True
        )
        return final, result

    def test_ready_before_a_ledger_byte_is_read(self, tmp_path, monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_bytes(ResultLedger.encode_header())
        loads = []
        load = ResultLedger.load
        monkeypatch.setattr(
            ResultLedger, "load",
            lambda self: loads.append(self.path) or load(self),
        )
        client = ServiceClient(tmp_path)
        try:
            status, doc, _ = client.request("GET", "/readyz")
            assert status == 200 and doc["ready"]
            assert loads == [] and _descriptors_on(ledger) == []
            self._run(client, dict(SPEC, instances=1))
            self._run(client, dict(SPEC, instances=1, seed=1))
            assert loads == [ledger]  # once per lifetime, not per campaign
        finally:
            client.close()

    def test_one_descriptor_across_20_campaigns_closed_by_drain(
        self, tmp_path
    ):
        ledger = tmp_path / "ledger.jsonl"
        client = ServiceClient(tmp_path, max_concurrent=2)
        try:
            submitted = []
            for seed in range(20):
                spec = dict(SPEC, instances=1, protocols=["bgp"], seed=seed)
                while True:  # the queue is bounded: wait for room
                    status, doc, _ = client.request("POST", "/campaigns", spec)
                    if status == 202:
                        break
                    assert status == 429
                    time.sleep(0.02)
                submitted.append(doc["id"])
                if not seed:
                    client.wait_terminal(doc["id"])
                assert len(_descriptors_on(ledger)) == 1
            for cid in submitted:
                assert client.wait_terminal(cid)["state"] == "done"
            assert len(_descriptors_on(ledger)) == 1
        finally:
            client.close()
        assert _descriptors_on(ledger) == []
        with ResultLedger(ledger) as reopened:
            assert len(reopened) == 20 and reopened.dropped_records == 0

    def test_ledger_compacted_by_another_process_while_idle(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        client = ServiceClient(tmp_path)
        try:
            first, _ = self._run(client, SPEC)
            assert first["executed"] == 4
            # `repro-stamp ledger compact --max-bytes`, run while the
            # daemon idles, evicts the oldest record: the path now names
            # another inode, in which every record sits somewhere else.
            with ResultLedger(ledger) as other:
                assert other.compact(max_bytes=ledger.stat().st_size - 1) == 1
            wider, result = self._run(client, dict(SPEC, instances=3))
            assert wider["executed"] == 3 and wider["ledger_hits"] == 3
        finally:
            client.close()
        # The new units landed in the file that is there now ...
        with ResultLedger(ledger) as reopened:
            assert len(reopened) == 6 and reopened.dropped_records == 0
        # ... and nothing was served from the file that is gone.
        control = ServiceClient(tmp_path / "control")
        try:
            _, expected = self._run(control, dict(SPEC, instances=3))
        finally:
            control.close()
        assert result == expected


class TestAuth:
    """Bearer-token gating of the mutating endpoints."""

    @pytest.fixture
    def locked(self, tmp_path):
        fixture = ServiceClient(
            tmp_path, start_executor=False, auth_token="s3cret"
        )
        yield fixture
        fixture.server.shutdown()
        fixture.server.server_close()

    def test_posts_without_token_are_401(self, locked):
        status, doc, headers = locked.request("POST", "/campaigns", SPEC)
        assert status == 401
        assert headers["WWW-Authenticate"] == "Bearer"
        assert "bearer token" in doc["error"]
        assert locked.request(
            "POST", "/campaigns/deadbeef/cancel"
        )[0] == 401

    def test_wrong_token_is_401(self, locked):
        status, _, _ = locked.request(
            "POST", "/campaigns", SPEC,
            headers={"Authorization": "Bearer wrong"},
        )
        assert status == 401

    def test_correct_token_admits(self, locked):
        status, doc, _ = locked.request(
            "POST", "/campaigns", SPEC,
            headers={"Authorization": "Bearer s3cret"},
        )
        assert status == 202
        status, _, _ = locked.request(
            "POST", f"/campaigns/{doc['id']}/cancel",
            headers={"Authorization": "Bearer s3cret"},
        )
        assert status == 202

    def test_probes_and_reads_stay_open(self, locked):
        assert locked.request("GET", "/healthz")[0] == 200
        # readyz answers without a token too (503: parked executor).
        assert locked.request("GET", "/readyz")[0] == 503
        assert locked.request("GET", "/campaigns")[0] == 200

    def test_no_token_configured_means_open(self, client):
        assert client.request("POST", "/campaigns", SPEC)[0] == 202


class TestReadiness:
    def test_readyz_reports_lanes_queue_and_budget(self, client):
        status, doc, _ = client.request("GET", "/readyz")
        assert status == 200
        assert doc["ready"] is True
        assert [lane["lane"] for lane in doc["lanes"]] == list(
            range(len(client.service._lanes))
        )
        assert all(lane["busy"] in (True, False) for lane in doc["lanes"])
        assert doc["queue_depth"] == 0
        budget = doc["worker_budget"]
        assert budget["total"] == budget["allocated"] + budget["free"]

    def test_busy_lane_is_visible(self, tmp_path):
        fixture = ServiceClient(tmp_path)
        try:
            _, doc, _ = fixture.request(
                "POST", "/campaigns", dict(SPEC, instances=80)
            )
            cid = doc["id"]
            deadline = time.monotonic() + 30
            busy = None
            while time.monotonic() < deadline:
                _, ready_doc, _ = fixture.request("GET", "/readyz")
                busy = [
                    lane for lane in ready_doc["lanes"] if lane["busy"]
                ]
                if busy:
                    break
                time.sleep(0.01)
            assert busy and busy[0]["campaign"] == cid
            fixture.wait_terminal(cid)
        finally:
            fixture.close()


class TestRetryAfter:
    def test_fallback_constant_before_any_campaign_finishes(self, parked):
        assert parked.service.retry_after_estimate() == (
            parked.service.config.retry_after
        )

    def test_estimate_scales_with_depth_and_durations(self, parked):
        service = parked.service
        # Two queued campaigns, no busy lanes, 10s mean duration,
        # default 2 lanes: ceil((2 + 1) * 10 / 2) = 15.
        parked.request("POST", "/campaigns", SPEC)
        parked.request("POST", "/campaigns", dict(SPEC, seed=7))
        service._durations.extend([8.0, 12.0])
        assert service.retry_after_estimate() == 15

    def test_estimate_is_floored_and_capped(self, parked):
        service = parked.service
        service._durations.append(0.001)
        assert service.retry_after_estimate() == 1
        service._durations.clear()
        service._durations.append(1e6)
        assert service.retry_after_estimate() == 300

    def test_queue_full_carries_the_estimate(self, tmp_path):
        fixture = ServiceClient(
            tmp_path, start_executor=False, max_queue=1
        )
        try:
            fixture.service._durations.append(20.0)
            fixture.request("POST", "/campaigns", SPEC)
            status, _, headers = fixture.request(
                "POST", "/campaigns", dict(SPEC, seed=9)
            )
            assert status == 429
            estimate = fixture.service.retry_after_estimate()
            assert int(headers["Retry-After"]) == estimate > 1
        finally:
            fixture.server.shutdown()
            fixture.server.server_close()


class TestLaneStatus:
    def test_running_campaign_reports_its_lane(self, tmp_path):
        fixture = ServiceClient(tmp_path)
        try:
            _, doc, _ = fixture.request(
                "POST", "/campaigns", dict(SPEC, instances=80)
            )
            cid = doc["id"]
            deadline = time.monotonic() + 30
            seen_lane = None
            while time.monotonic() < deadline:
                _, status_doc, _ = fixture.request(
                    "GET", f"/campaigns/{cid}"
                )
                if status_doc["state"] == "running":
                    seen_lane = status_doc.get("lane")
                    break
                time.sleep(0.01)
            assert seen_lane in range(len(fixture.service._lanes))
            final = fixture.wait_terminal(cid)
            assert "lane" not in final
        finally:
            fixture.close()


class TestJournalBytes:
    """Every state transition journals exactly one record, byte-pinned.

    With a fixed ``clock`` the journal is a pure function of what the
    service was asked to do; the expected file is rebuilt here from
    first principles (one body per lifecycle fact), so a transition
    that advances in memory without journaling — or journals other
    fields — changes the bytes.
    """

    NOW = 1234.5

    def test_fixed_clock_journal_is_byte_identical(self, tmp_path, monkeypatch):
        from repro.service.journal import CampaignJournal

        def state(cid, name, **fields):
            return dict(
                fields, event="state", id=cid, state=name, ts=self.NOW
            )

        def submitted(cid, spec):
            return {"event": "submitted", "id": cid, "spec": spec,
                    "ts": self.NOW}

        def boom(spec):
            raise RuntimeError("boom")

        checkpoint = {"event": "checkpoint", "ts": self.NOW,
                      "reason": "shutdown"}
        first = ServiceClient(
            tmp_path, start_executor=False, clock=lambda: self.NOW
        )
        try:
            # submit -> cancel while queued -> resubmit -> run to done
            _, doc, _ = first.request("POST", "/campaigns", SPEC)
            good = doc["id"]
            first.request("POST", f"/campaigns/{good}/cancel")
            first.request("POST", "/campaigns", SPEC)
            first.service.start()
            done = first.wait_terminal(good)
            assert done["state"] == "done"
            _, result, _ = first.request("GET", f"/campaigns/{good}/result")
            # a campaign whose execution raises lands in failed
            monkeypatch.setattr(first.service, "_graph_for", boom)
            _, doc, _ = first.request(
                "POST", "/campaigns", dict(SPEC, instances=1)
            )
            bad = doc["id"]
            failed = first.wait_terminal(bad)
            assert failed["state"] == "failed" and "boom" in failed["error"]
        finally:
            first.close()
        expected = [
            submitted(good, done["spec"]),
            state(good, "cancelled"),
            state(good, "queued"),
            state(good, "running"),
            state(good, "done", executed=4, ledger_hits=0, failures=[],
                  result=result),
            submitted(bad, failed["spec"]),
            state(bad, "running"),
            state(bad, "failed", error=failed["error"]),
            checkpoint,
        ]
        # A crash mid-run leaves "running" as the last word; recovery
        # journals the requeue it performs.
        crashed = [submitted("c" * 64, done["spec"]),
                   state("c" * 64, "running")]
        with CampaignJournal(tmp_path / "journal.jsonl") as journal:
            for body in crashed:
                journal.append(body)
        second = ServiceClient(
            tmp_path, start_executor=False, clock=lambda: self.NOW
        )
        assert second.service.resumed == 1
        second.close()
        expected += crashed + [state("c" * 64, "queued"), checkpoint]
        assert (tmp_path / "journal.jsonl").read_bytes() == b"".join(
            CampaignJournal.encode_record(body) for body in expected
        )
