"""The fault hook of the chaos tests cannot go silent."""

from __future__ import annotations

import multiprocessing

import pytest

from faults import fault_spec, install
from repro.experiments import supervisor


def test_the_hook_refuses_a_start_method_that_does_not_fork(monkeypatch):
    """Under ``spawn`` or ``forkserver`` a worker imports a fresh
    supervisor, so a wrapped ``run_unit`` would never fire there and a
    "fail once, then succeed" test would pass with no fault."""
    real = supervisor.run_unit
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "spawn")
    with pytest.raises(RuntimeError, match="'fork' start method"):
        install(monkeypatch, fault_spec("raise"))
    assert supervisor.run_unit is real
