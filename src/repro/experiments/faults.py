"""Test-only fault injection for the supervised experiment pool.

Chaos tests need a worker to misbehave *on demand*: raise mid-unit,
hang past the timeout, or die without a word (the OOM-reaper case).
This module provides an environment-gated hook the unit entry point
(:func:`repro.experiments.supervisor.run_unit`) calls before running a
unit; when the :data:`FAULTS_ENV` variable is unset — every production
run — the hook is a single dictionary lookup.

The spec is JSON in ``REPRO_FAULTS``::

    {"match": {"instance": 1, "protocol": "bgp"},   # any subset of
     "mode": "raise",                               # kind/seed/instance/protocol
     "times": 2,                                    # optional: stop after N firings
     "counter": "/tmp/fault.count",                 # required with "times"
     "scope": "worker",                             # optional: spare in-process runs
     "hang_seconds": 3600.0}                        # for mode "hang"

Modes: ``raise`` raises :class:`InjectedFault`; ``hang`` sleeps
``hang_seconds`` (long enough that only a supervisor timeout ends the
attempt); ``exit`` calls ``os._exit(3)`` — the worker process vanishes
without unwinding, exactly like a kill.

``times`` bounds how often the fault fires so retry paths can be
tested end-to-end (fail once, succeed on retry).  Because a retried
unit may land in a *different* worker process, the firing count lives
in a file: each firing appends one byte with ``O_APPEND`` (atomic
across processes) and the count is the file size.

``scope: "worker"`` fires only inside pool worker processes (the
supervisor marks them at startup): an ``exit`` or a ``hang`` then
takes down a worker the supervisor can replace, never the process
that runs the test — in-process attempts of the same unit are spared.

The environment variable may also hold a JSON *list* of specs (see
:func:`combine_specs`); the first spec whose ``match`` covers the unit
fires.  That is how a single chaos campaign injects a crashing unit, a
hung unit, and a worker kill at once.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.errors import ReproError

#: Environment variable carrying the JSON fault spec.
FAULTS_ENV = "REPRO_FAULTS"

#: Fields of a unit identity a spec's ``match`` may constrain.
_MATCH_FIELDS = ("kind", "seed", "instance", "protocol")

#: True in processes spawned as supervised pool workers.
_IN_WORKER_PROCESS = False


class InjectedFault(ReproError):
    """The failure raised by a ``mode: "raise"`` fault injection."""


def mark_worker_process() -> None:
    """Record that this process is a pool worker (scope filtering)."""
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True


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
    """Build the JSON value tests set in :data:`FAULTS_ENV`."""
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
            "hang_seconds": hang_seconds}
    if times is not None:
        spec["times"] = times
        spec["counter"] = counter
    return json.dumps(spec)


def combine_specs(*specs: str) -> str:
    """Merge several :func:`fault_spec` strings into one env value."""
    return json.dumps([json.loads(spec) for spec in specs])


def _bump_counter(path: str) -> int:
    """Count one firing across processes; returns the firing ordinal."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"x")
        return os.fstat(fd).st_size
    finally:
        os.close(fd)


def _matches(spec: dict, unit: dict) -> bool:
    if spec.get("scope") == "worker" and not _IN_WORKER_PROCESS:
        return False
    match = spec.get("match", {})
    return all(
        match[field] == unit[field]
        for field in _MATCH_FIELDS
        if field in match
    )


def _fire(spec: dict, unit: dict) -> None:
    times = spec.get("times")
    if times is not None and _bump_counter(spec["counter"]) > times:
        return
    mode = spec.get("mode")
    if mode == "raise":
        raise InjectedFault(
            "injected failure for unit "
            f"{unit['kind']}:{unit['seed']}:{unit['instance']}:{unit['protocol']}"
        )
    if mode == "hang":
        time.sleep(float(spec.get("hang_seconds", 3600.0)))
        return
    if mode == "exit":
        os._exit(3)
    raise ValueError(f"unknown fault mode {mode!r}")


def maybe_inject(kind: str, seed: int, instance: int, protocol: str) -> None:
    """Fire the first matching configured fault; no-op otherwise."""
    spec_text = os.environ.get(FAULTS_ENV)
    if not spec_text:
        return
    parsed = json.loads(spec_text)
    specs = parsed if isinstance(parsed, list) else [parsed]
    unit = {"kind": kind, "seed": seed, "instance": instance,
            "protocol": protocol}
    for spec in specs:
        if _matches(spec, unit):
            _fire(spec, unit)
            return
