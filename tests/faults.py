"""Fault injection for the supervised pool's chaos tests.

:func:`install` wraps :func:`repro.experiments.supervisor.run_unit` so
that the units a spec matches misbehave on demand; the package itself
has no hook.  ``_worker_main`` and the in-process path look
``run_unit`` up at call time and every worker forks from the process
that installed the wrapper, so it reaches the pool — under ``fork``
only, which :func:`install` insists on.

A spec is JSON (see :func:`fault_spec`): ``match`` constrains any of
kind/seed/instance/protocol (empty matches every unit); ``mode`` is
``raise`` (:class:`InjectedFault`), ``hang`` (sleep ``hang_seconds``,
so only a supervisor timeout ends the attempt) or ``exit``
(``os._exit(3)``: the worker vanishes like a kill); ``times`` stops
after N firings, counted across processes as the size of the
``counter`` file, one byte appended per firing; ``scope: "worker"``
fires only in a process ``multiprocessing`` started, never in the test
itself.  A JSON list of specs fires the first one that matches.

The daemon tests hand a spec to a real ``serve`` in the
``REPRO_FAULTS`` environment variable and start it as ``python
tests/faults.py serve ...``: run as a script, this module installs the
spec, then runs the CLI.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from typing import Optional

from repro.experiments import supervisor

#: Environment variable carrying the spec of a daemon started as a script.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(Exception):
    """The failure raised by a ``mode: "raise"`` fault."""


def fault_spec(
    mode: str,
    *,
    kind: Optional[str] = None,
    seed: Optional[int] = None,
    instance: Optional[int] = None,
    protocol: Optional[str] = None,
    times: Optional[int] = None,
    counter: Optional[str] = None,
    scope: str = "any",
    hang_seconds: float = 3600.0,
) -> str:
    """Build one spec as JSON text."""
    if times is not None and counter is None:
        raise ValueError("a bounded fault needs a counter file path")
    match = {
        field: value
        for field, value in (
            ("kind", kind), ("seed", seed),
            ("instance", instance), ("protocol", protocol),
        )
        if value is not None
    }
    spec = {"mode": mode, "match": match, "scope": scope,
            "hang_seconds": hang_seconds, "times": times, "counter": counter}
    return json.dumps(spec)


def combine_specs(*specs: str) -> str:
    """Merge several :func:`fault_spec` strings into one."""
    return json.dumps([json.loads(spec) for spec in specs])


def _matches(spec: dict, unit: dict) -> bool:
    if spec.get("scope") == "worker" and multiprocessing.parent_process() is None:
        return False
    return all(unit[field] == value for field, value in spec["match"].items())


def _fire(spec: dict, unit: dict) -> None:
    if spec.get("times") is not None:
        fd = os.open(spec["counter"], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, b"x")
            if os.fstat(fd).st_size > spec["times"]:
                return
        finally:
            os.close(fd)
    mode = spec["mode"]
    if mode == "raise":
        raise InjectedFault(
            "injected failure for unit "
            f"{unit['kind']}:{unit['seed']}:{unit['instance']}:{unit['protocol']}"
        )
    if mode == "hang":
        time.sleep(spec["hang_seconds"])
    elif mode == "exit":
        os._exit(3)
    else:
        raise ValueError(f"unknown fault mode {mode!r}")


def _faulty(run_unit, spec_text: str):
    """``run_unit`` behind the first matching spec of ``spec_text``."""
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(
            f"fault injection needs the 'fork' start method, not {method!r}:"
            " a wrapped run_unit would never reach the workers"
        )
    parsed = json.loads(spec_text)
    specs = parsed if isinstance(parsed, list) else [parsed]

    def run_faulty_unit(graph, builder, kind, seed, instance, protocol):
        unit = {"kind": kind, "seed": seed, "instance": instance,
                "protocol": protocol}
        for spec in specs:
            if _matches(spec, unit):
                _fire(spec, unit)
                break
        return run_unit(graph, builder, kind, seed, instance, protocol)

    return run_faulty_unit


def install(monkeypatch, spec_text: str) -> None:
    """Make units matching ``spec_text`` misbehave until ``monkeypatch`` undoes it."""
    monkeypatch.setattr(
        supervisor, "run_unit", _faulty(supervisor.run_unit, spec_text)
    )


if __name__ == "__main__":
    from repro.cli import main

    supervisor.run_unit = _faulty(supervisor.run_unit, os.environ[FAULTS_ENV])
    sys.exit(main(sys.argv[1:]))
