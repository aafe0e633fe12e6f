"""Crash tests of the real daemon process (`repro-stamp serve`).

These spawn the actual CLI entry point, then do to it what production
does: ``kill -9`` mid-campaign, SIGTERM mid-campaign, restarts over
the same journal+ledger.  The contracts under test are the tentpole
acceptance criteria: no accepted campaign is ever forgotten, a
recovered campaign recomputes only its missing units, the final result
is byte-identical to an uninterrupted run's, and graceful shutdown
exits 0 having drained in-flight work.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import faults

SRC = str(Path(__file__).resolve().parents[2] / "src")
TINY_TOPOLOGY = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
SPEC = {
    "kind": "fig2",
    "instances": 2,
    "protocols": ["bgp", "stamp"],
    "topology": TINY_TOPOLOGY,
}
# Unit order is instance-major: (0,bgp), (0,stamp), (1,bgp), (1,stamp).
# Hanging (1, bgp) deterministically stalls the campaign at 2/4 units.
HANG_THIRD_UNIT = faults.fault_spec(
    "hang", kind="fig2-single-link", instance=1, protocol="bgp",
    hang_seconds=3600.0,
)


class Daemon:
    def __init__(self, tmp_path, *, env_extra=None, extra_args=None):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.update(env_extra or {})
        # A spec in the environment starts the CLI behind tests/faults.py.
        cli = [faults.__file__] if faults.FAULTS_ENV in env else ["-m", "repro.cli"]
        self.process = subprocess.Popen(
            [
                sys.executable, *cli, "serve",
                "--port", "0",
                "--ledger", str(tmp_path / "ledger.jsonl"),
                "--journal", str(tmp_path / "journal.jsonl"),
                *(extra_args or []),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline().strip()
        assert line.startswith("listening on http://"), line
        self.base = line.split("listening on ", 1)[1]

    def request(self, method, path, body=None, headers=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def json(self, method, path, body=None, headers=None):
        status, payload = self.request(method, path, body, headers)
        return status, json.loads(payload)

    def wait_state(self, cid, states, timeout=90.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc = self.json("GET", f"/campaigns/{cid}")
            if status == 200 and doc["state"] in states:
                return doc
            time.sleep(0.05)
        raise AssertionError(f"campaign {cid} never reached {states}: {doc}")

    def wait_progress(self, cid, resolved, timeout=90.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc = self.json("GET", f"/campaigns/{cid}")
            if (
                status == 200
                and doc["progress"]["resolved_units"] >= resolved
            ):
                return doc
            time.sleep(0.05)
        raise AssertionError(f"campaign {cid} never resolved {resolved}")

    def kill9(self):
        self.process.kill()
        self.process.wait(timeout=30)

    def sigterm(self, timeout=60):
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)


@pytest.fixture
def daemon_dir(tmp_path):
    yield tmp_path


def _run_to_done(tmp_path, spec):
    """One uninterrupted daemon lifetime; returns the result bytes."""
    daemon = Daemon(tmp_path)
    try:
        _, doc = daemon.json("POST", "/campaigns", spec)
        cid = doc["id"]
        daemon.wait_state(cid, ("done",))
        _, result = daemon.request("GET", f"/campaigns/{cid}/result")
        return cid, result
    finally:
        if daemon.process.poll() is None:
            assert daemon.sigterm() == 0


class TestKillNineRecovery:
    def test_killed_daemon_resumes_and_matches_uninterrupted(
        self, daemon_dir, tmp_path_factory
    ):
        # Phase 1: a daemon whose third unit hangs forever; kill -9 it
        # once the first two units are demonstrably done and ledgered.
        daemon = Daemon(
            daemon_dir, env_extra={"REPRO_FAULTS": HANG_THIRD_UNIT}
        )
        _, doc = daemon.json("POST", "/campaigns", SPEC)
        cid = doc["id"]
        stalled = daemon.wait_progress(cid, 2)
        assert stalled["state"] == "running"
        daemon.kill9()

        # Phase 2: restart clean over the same journal + ledger.  The
        # campaign is re-listed, requeued, and completes by computing
        # only the two units the crash swallowed.
        revived = Daemon(daemon_dir)
        try:
            final = revived.wait_state(cid, ("done",))
            assert final["executed"] == 2
            assert final["ledger_hits"] == 2
            _, resumed_result = revived.request(
                "GET", f"/campaigns/{cid}/result"
            )
        finally:
            assert revived.sigterm() == 0

        # Phase 3: control run in a fresh directory, never interrupted.
        control_cid, control_result = _run_to_done(
            tmp_path_factory.mktemp("control"), SPEC
        )
        assert control_cid == cid
        assert resumed_result == control_result

    def test_killed_daemon_relists_every_accepted_campaign(self, daemon_dir):
        daemon = Daemon(daemon_dir)
        specs = [dict(SPEC, seed=i) for i in range(3)]
        cids = []
        for spec in specs:
            status, doc = daemon.json("POST", "/campaigns", spec)
            assert status == 202
            cids.append(doc["id"])
        daemon.wait_state(cids[-1], ("done",))
        daemon.kill9()
        revived = Daemon(daemon_dir)
        try:
            _, listing = revived.json("GET", "/campaigns")
            assert sorted(c["id"] for c in listing["campaigns"]) == sorted(cids)
            for cid in cids:
                revived.wait_state(cid, ("done",))
        finally:
            assert revived.sigterm() == 0


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, daemon_dir):
        daemon = Daemon(daemon_dir)
        _, doc = daemon.json("POST", "/campaigns", SPEC)
        daemon.wait_state(doc["id"], ("done",))
        assert daemon.sigterm() == 0
        journal = (daemon_dir / "journal.jsonl").read_text()
        last = json.loads(journal.splitlines()[-1])
        assert last["body"]["event"] == "checkpoint"
        assert last["body"]["reason"] == "shutdown"

    def test_sigterm_mid_campaign_loses_nothing_and_resumes(self, daemon_dir):
        from repro.experiments.ledger import ResultLedger

        daemon = Daemon(
            daemon_dir, env_extra={"REPRO_FAULTS": HANG_THIRD_UNIT}
        )
        _, doc = daemon.json("POST", "/campaigns", SPEC)
        cid = doc["id"]
        daemon.wait_progress(cid, 2)
        # The hung unit cannot drain; the daemon gives up after its
        # drain timeout... which is an hour away.  But SIGTERM must
        # still stop admissions immediately and requeue-journal the
        # interrupted campaign on the in-process path only after the
        # unit ends — so here we verify the *ledger* kept both
        # completed units, then kill hard (the operator's escalation
        # path: TERM, wait, KILL).
        daemon.process.send_signal(signal.SIGTERM)
        time.sleep(1.0)
        daemon.kill9()
        with ResultLedger(daemon_dir / "ledger.jsonl") as ledger:
            assert len(ledger) == 2  # zero completed units lost
        revived = Daemon(daemon_dir)
        try:
            final = revived.wait_state(cid, ("done",))
            assert final["ledger_hits"] == 2
            assert final["executed"] == 2
        finally:
            assert revived.sigterm() == 0

    def test_sigterm_mid_campaign_requeues_and_exits_zero(self, daemon_dir):
        """With no hung unit, SIGTERM mid-run drains cooperatively:
        exit 0, the interrupted campaign journaled back to queued, and
        the restart finishes it from the ledger."""
        daemon = Daemon(daemon_dir)
        big = dict(SPEC, instances=150, protocols=["bgp"])
        _, doc = daemon.json("POST", "/campaigns", big)
        cid = doc["id"]
        daemon.wait_progress(cid, 2)
        assert daemon.sigterm() == 0
        revived = Daemon(daemon_dir)
        try:
            final = revived.wait_state(cid, ("done",))
            assert final["ledger_hits"] > 0
            assert final["ledger_hits"] + final["executed"] == 150
        finally:
            assert revived.sigterm() == 0

    def test_healthz_up_until_the_end(self, daemon_dir):
        daemon = Daemon(daemon_dir)
        status, doc = daemon.json("GET", "/healthz")
        assert status == 200 and doc == {"ok": True}
        status, doc = daemon.json("GET", "/readyz")
        assert status == 200
        assert daemon.sigterm() == 0
