#!/usr/bin/env python
"""CI smoke for fault-tolerant, resumable campaign execution.

Runs a small Figure-2-style campaign on ``workers`` processes with an
*injected* persistent failure in one unit (via the ``REPRO_FAULTS``
hook) and a result ledger attached, then reruns the same campaign with
the fault removed.  Asserts the full robustness contract end to end:

1. the faulty campaign completes — every other unit's result is
   returned and the structured failure report is non-empty;
2. every completed unit was persisted to the ledger as it finished;
3. the rerun recomputes *only* the previously failed unit (everything
   else is answered from the ledger) and ends complete;
4. the resumed output is byte-identical to a clean, ledger-less
   sequential run of the same campaign.

Usage (what ci.yml runs on the 4-vCPU job)::

    python benchmarks/check_ledger_resume.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro.experiments.faults import FAULTS_ENV, fault_spec
from repro.experiments.parallel import ParallelRunner
from repro.experiments.reporting import format_failure_report
from repro.experiments.scenarios import single_provider_link_failure
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)

TOPOLOGY = InternetTopologyConfig(
    seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
)
KIND = "fig2-single-link"
SEED = 7
INSTANCES = 3
PROTOCOLS = ("bgp", "stamp")
WORKERS = int(os.environ.get("REPRO_SMOKE_WORKERS", "4"))
FAULTY_UNIT = {"instance": 1, "protocol": "stamp"}


def _fingerprint(outcome):
    return {
        protocol: [
            (
                run.affected,
                run.updates,
                repr(run.convergence_time),
                repr(run.disruption_duration),
            )
            for run in runs
        ]
        for protocol, runs in outcome.runs.items()
    }


def _campaign(graph, **settings):
    return ParallelRunner(**settings).run_failure_comparison(
        single_provider_link_failure, KIND, SEED, INSTANCES, PROTOCOLS, graph
    )


def main() -> int:
    graph, _ = generate_internet_topology(TOPOLOGY)
    clean = _campaign(graph, workers=1)
    assert clean.complete, "clean sequential campaign must not fail"

    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"

        os.environ[FAULTS_ENV] = fault_spec("raise", **FAULTY_UNIT)
        try:
            faulty = _campaign(
                graph,
                workers=WORKERS,
                max_attempts=2,
                backoff_base=0.05,
                ledger=ledger,
            )
        finally:
            del os.environ[FAULTS_ENV]

        report = format_failure_report(faulty.failures)
        print(report or "(no failure report)")
        assert len(faulty.failures) == 1, "expected exactly one unit failure"
        failure = faulty.failures[0]
        assert (failure.instance, failure.protocol) == (
            FAULTY_UNIT["instance"], FAULTY_UNIT["protocol"],
        )
        assert report, "failure report must be non-empty"
        expected_done = INSTANCES * len(PROTOCOLS) - 1
        assert faulty.executed == expected_done, (
            f"expected {expected_done} completed units, got {faulty.executed}"
        )

        resumed = _campaign(graph, workers=WORKERS, ledger=ledger)
        assert resumed.complete, "resumed campaign must complete"
        assert resumed.executed == 1, (
            f"resume must recompute only the missing unit "
            f"(recomputed {resumed.executed})"
        )
        assert resumed.ledger_hits == expected_done
        assert _fingerprint(resumed) == _fingerprint(clean), (
            "resumed output is not byte-identical to the clean run"
        )

    print(
        f"OK: workers={WORKERS} campaign survived an injected unit failure "
        f"({failure.describe()}), and the ledger resume recomputed exactly "
        "1 unit with byte-identical output."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
