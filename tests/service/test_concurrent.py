"""Chaos tests of the concurrent campaign scheduler.

The lane model under test: ``--max-concurrent`` executor lanes pull
from one FIFO queue and share one worker budget, and every robustness
guarantee the single-executor service made still holds with several
campaigns in flight — ``kill -9`` with two running and one queued
loses nothing and changes no result byte, a hung campaign on one lane
never blocks the other, and the journal can rotate mid-campaign and
still recover from snapshot+tail.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from faults import combine_specs, fault_spec
from test_daemon import SRC, SPEC, Daemon

# Unit order is instance-major: (0,bgp), (0,stamp), (1,bgp), (1,stamp).
# Hanging (1, bgp) stalls a 2x2 campaign deterministically at 2/4 —
# one fault per seed, so two campaigns stall on two different lanes.
HANG_SEED_1 = fault_spec(
    "hang", kind="fig2-single-link", seed=1, instance=1, protocol="bgp",
    hang_seconds=3600.0,
)
HANG_SEED_2 = fault_spec(
    "hang", kind="fig2-single-link", seed=2, instance=1, protocol="bgp",
    hang_seconds=3600.0,
)

SPEC_A = dict(SPEC, seed=1)
SPEC_B = dict(SPEC, seed=2)
SPEC_C = dict(SPEC, seed=3)


def _controls(tmp_path_factory, specs):
    """Uninterrupted result bytes for ``specs``, one fresh one-lane daemon."""
    control = Daemon(
        tmp_path_factory.mktemp("control"), extra_args=["--max-concurrent", "1"]
    )
    results = {}
    try:
        for spec in specs:
            _, doc = control.json("POST", "/campaigns", spec)
            cid = doc["id"]
            control.wait_state(cid, ("done",))
            _, results[cid] = control.request(
                "GET", f"/campaigns/{cid}/result"
            )
    finally:
        assert control.sigterm() == 0
    return results


class TestConcurrentKillNine:
    def test_two_inflight_plus_one_queued_survive_kill9_byte_identical(
        self, tmp_path, tmp_path_factory
    ):
        # Phase 1: two campaigns hang mid-run on their own lanes; a
        # third waits in the queue behind them.
        daemon = Daemon(
            tmp_path,
            env_extra={
                "REPRO_FAULTS": combine_specs(HANG_SEED_1, HANG_SEED_2)
            },
        )
        cids = {}
        for name, spec in (("a", SPEC_A), ("b", SPEC_B), ("c", SPEC_C)):
            status, doc = daemon.json("POST", "/campaigns", spec)
            assert status == 202
            cids[name] = doc["id"]
        stalled_a = daemon.wait_progress(cids["a"], 2)
        stalled_b = daemon.wait_progress(cids["b"], 2)
        assert stalled_a["state"] == stalled_b["state"] == "running"
        # Both lanes demonstrably busy at once, on distinct lanes.
        assert {stalled_a["lane"], stalled_b["lane"]} == {0, 1}
        _, queued_c = daemon.json("GET", f"/campaigns/{cids['c']}")
        assert queued_c["state"] == "queued"
        _, ready = daemon.json("GET", "/readyz")
        assert [lane["busy"] for lane in ready["lanes"]] == [True, True]
        assert ready["queue_depth"] == 1
        daemon.kill9()

        # Phase 2: restart clean.  All three campaigns are re-listed;
        # the interrupted two recompute exactly the units the crash
        # swallowed, the queued one runs in full.
        revived = Daemon(tmp_path)
        results = {}
        try:
            for name in ("a", "b", "c"):
                final = revived.wait_state(cids[name], ("done",))
                if name in ("a", "b"):
                    assert final["executed"] == 2
                    assert final["ledger_hits"] == 2
                else:
                    assert final["executed"] == 4
                _, results[name] = revived.request(
                    "GET", f"/campaigns/{cids[name]}/result"
                )
        finally:
            assert revived.sigterm() == 0

        # Phase 3: byte-identical to never-interrupted one-lane controls.
        controls = _controls(tmp_path_factory, (SPEC_A, SPEC_B, SPEC_C))
        for name in ("a", "b", "c"):
            assert results[name] == controls[cids[name]]


class TestLaneIsolation:
    def test_hung_lane_never_blocks_the_other(self, tmp_path):
        daemon = Daemon(
            tmp_path, env_extra={"REPRO_FAULTS": HANG_SEED_1}
        )
        try:
            _, doc = daemon.json("POST", "/campaigns", SPEC_A)
            hung = doc["id"]
            daemon.wait_progress(hung, 2)
            # Lane 0 is wedged for an hour.  Campaigns keep flowing
            # through the other lane regardless.
            for seed in (10, 11, 12):
                _, doc = daemon.json(
                    "POST", "/campaigns", dict(SPEC, seed=seed)
                )
                daemon.wait_state(doc["id"], ("done",))
            _, still = daemon.json("GET", f"/campaigns/{hung}")
            assert still["state"] == "running"
        finally:
            daemon.kill9()  # the hung unit cannot drain cooperatively

    def test_cancel_on_one_lane_never_stalls_the_other(self, tmp_path):
        daemon = Daemon(tmp_path)
        try:
            big = dict(SPEC, seed=21, instances=150, protocols=["bgp"])
            other = dict(SPEC, seed=22, instances=150, protocols=["bgp"])
            _, doc_a = daemon.json("POST", "/campaigns", big)
            _, doc_b = daemon.json("POST", "/campaigns", other)
            daemon.wait_progress(doc_a["id"], 2)
            daemon.wait_progress(doc_b["id"], 2)
            status, _ = daemon.json(
                "POST", f"/campaigns/{doc_a['id']}/cancel"
            )
            assert status == 202
            cancelled = daemon.wait_state(
                doc_a["id"], ("cancelled",)
            )
            assert 0 < cancelled["progress"]["resolved_units"] < 150
            # The neighbour lane finishes untouched.
            final_b = daemon.wait_state(doc_b["id"], ("done",))
            assert final_b["progress"]["resolved_units"] == 150
        finally:
            assert daemon.sigterm() == 0


class TestJournalRotation:
    def test_rotation_mid_campaign_then_kill9_recovers_snapshot_tail(
        self, tmp_path
    ):
        # A tight byte bound: the journal rotates as soon as the first
        # campaign's terminal record lands.
        daemon = Daemon(
            tmp_path,
            env_extra={"REPRO_FAULTS": HANG_SEED_2},
            extra_args=["--journal-max-bytes", "500"],
        )
        _, doc = daemon.json("POST", "/campaigns", dict(SPEC, seed=4))
        finished = doc["id"]
        daemon.wait_state(finished, ("done",))
        _, before = daemon.request("GET", f"/campaigns/{finished}/result")
        # Second campaign hangs mid-run: the crash happens with a
        # rotated journal AND an in-flight campaign in its tail.
        _, doc = daemon.json("POST", "/campaigns", SPEC_B)
        inflight = doc["id"]
        daemon.wait_progress(inflight, 2)
        journal_lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert any(
            line["body"]["event"] == "snapshot" for line in journal_lines
        )
        daemon.kill9()

        revived = Daemon(tmp_path)
        try:
            # The finished campaign survived rotation byte-for-byte...
            _, after = revived.request(
                "GET", f"/campaigns/{finished}/result"
            )
            assert after == before
            # ...and the tail campaign resumes from the ledger.
            final = revived.wait_state(inflight, ("done",))
            assert final["executed"] == 2
            assert final["ledger_hits"] == 2
        finally:
            assert revived.sigterm() == 0

    def test_journal_cli_stats_and_compact(self, tmp_path):
        daemon = Daemon(tmp_path)
        _, doc = daemon.json("POST", "/campaigns", SPEC)
        daemon.wait_state(doc["id"], ("done",))
        assert daemon.sigterm() == 0
        path = tmp_path / "journal.jsonl"

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", "journal", *args],
                capture_output=True, text=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )

        def parse(stdout):
            return dict(line.split(None, 1) for line in stdout.splitlines())

        stats = cli("stats", str(path))
        assert stats.returncode == 0
        parsed = parse(stats.stdout)
        assert parsed["snapshots"] == "0"
        assert parsed["active_campaigns"] == "0"
        assert parsed["campaigns"] == "1"

        before = path.stat().st_size
        compacted = cli("compact", str(path))
        assert compacted.returncode == 0
        assert f"compacted {before} ->" in compacted.stdout
        assert "1 campaign(s) kept, 0 evicted" in compacted.stdout

        stats = cli("stats", str(path))
        assert parse(stats.stdout)["snapshots"] == "1"
        # The compacted journal still serves the finished result.
        revived = Daemon(tmp_path)
        try:
            status, body = revived.request(
                "GET", f"/campaigns/{doc['id']}/result"
            )
            assert status == 200 and json.loads(body)["id"] == doc["id"]
        finally:
            assert revived.sigterm() == 0


class TestDaemonAuth:
    def test_token_gates_the_daemon_end_to_end(self, tmp_path):
        daemon = Daemon(
            tmp_path, env_extra={"REPRO_SERVICE_TOKEN": "hunter2"}
        )
        try:
            assert daemon.json("GET", "/healthz")[0] == 200
            assert daemon.json("GET", "/readyz")[0] == 200
            assert daemon.json("POST", "/campaigns", SPEC)[0] == 401
            status, doc = daemon.json(
                "POST", "/campaigns", SPEC,
                headers={"Authorization": "Bearer hunter2"},
            )
            assert status == 202
            daemon.wait_state(doc["id"], ("done",))
        finally:
            assert daemon.sigterm() == 0


class TestInProcessOverlap:
    """Overlap observed at the Python layer, no subprocesses."""

    def test_two_lanes_run_campaigns_simultaneously(self, tmp_path):
        from test_service import ServiceClient

        fixture = ServiceClient(tmp_path, max_concurrent=2, workers=2)
        try:
            big = {"instances": 150, "protocols": ["bgp"]}
            _, doc_a, _ = fixture.request(
                "POST", "/campaigns", dict(SPEC, seed=31, **big)
            )
            _, doc_b, _ = fixture.request(
                "POST", "/campaigns", dict(SPEC, seed=32, **big)
            )
            deadline = time.monotonic() + 60
            overlapped = False
            while time.monotonic() < deadline and not overlapped:
                states = []
                for doc in (doc_a, doc_b):
                    _, status_doc, _ = fixture.request(
                        "GET", f"/campaigns/{doc['id']}"
                    )
                    states.append(status_doc["state"])
                overlapped = states == ["running", "running"]
                time.sleep(0.005)
            assert overlapped, "campaigns never ran simultaneously"
            for doc in (doc_a, doc_b):
                final = fixture.wait_terminal(doc["id"])
                assert final["state"] == "done"
        finally:
            fixture.close()
