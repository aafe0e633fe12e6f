"""The CLI and the daemon are two doors into one ledger.

A unit's ledger key and its seeds both hash the campaign's unit-kind
string and its builder (bound keywords included), so the two front
ends share results exactly as long as they derive both from the same
place — the campaign catalogue.  For every catalogue kind, in both
directions: what one front end computed, the other must answer
entirely from the ledger.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import main
from repro.experiments.figures import CAMPAIGNS
from repro.service.app import CampaignService, ServiceConfig

SEED = 5
INSTANCES = 2
TINY_ARGS = [
    "--seed", str(SEED), "--tier1", "3", "--tier2", "8", "--tier3", "16",
    "--stubs", "35", "--instances", str(INSTANCES),
]
TINY_TOPOLOGY = {
    "seed": SEED, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35,
}
#: Non-default on purpose: the bound keywords are part of the key.
FLAP_ARGS = ["--period", "15", "--flaps", "1"]
FLAP_FIELDS = {"period": 15, "flaps": 1}


def _argv(kind, ledger=None):
    ledger_args = ["--ledger", str(ledger)] if ledger is not None else []
    return TINY_ARGS + ledger_args + [kind] + (
        FLAP_ARGS if kind == "flap" else []
    )


def _spec(kind):
    spec = {
        "kind": kind, "seed": SEED, "instances": INSTANCES,
        "topology": TINY_TOPOLOGY,
    }
    return dict(spec, **FLAP_FIELDS) if kind == "flap" else spec


def _serve(tmp_path, name, ledger, spec):
    """Run ``spec`` to its end on a fresh daemon over ``ledger``."""
    service = CampaignService(ServiceConfig(
        journal_path=tmp_path / f"{name}.journal", ledger_path=ledger,
    ))
    service.start()
    try:
        _, status = service.submit(spec)
        deadline = time.monotonic() + 60.0
        while status["state"] in ("queued", "running"):
            assert time.monotonic() < deadline, status
            time.sleep(0.01)
            status = service.status(status["id"])
    finally:
        service.begin_shutdown()
        assert service.drain(timeout=30)
    assert status["state"] == "done", status
    return status


@pytest.mark.parametrize("kind", list(CAMPAIGNS))
def test_cli_and_daemon_answer_each_other_from_one_ledger(
    kind, tmp_path, capsys
):
    assert main(_argv(kind)) == 0
    unledgered = capsys.readouterr().out

    # CLI first, daemon second.
    cli_first = tmp_path / "cli-first.jsonl"
    assert main(_argv(kind, cli_first)) == 0
    assert capsys.readouterr().out == unledgered
    served = _serve(tmp_path, "second", cli_first, _spec(kind))
    total = served["progress"]["total_units"]
    assert total == INSTANCES * 4
    assert (served["executed"], served["ledger_hits"]) == (0, total)

    # Daemon first, CLI second.
    daemon_first = tmp_path / "daemon-first.jsonl"
    served = _serve(tmp_path, "first", daemon_first, _spec(kind))
    assert (served["executed"], served["ledger_hits"]) == (total, 0)
    written = daemon_first.read_bytes()
    assert main(_argv(kind, daemon_first)) == 0
    assert capsys.readouterr().out == unledgered
    assert daemon_first.read_bytes() == written
