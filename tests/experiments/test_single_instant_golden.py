"""Golden snapshot of the paper's five single-instant workloads.

The paper's evaluation (section 6.2) applies every event at one
instant.  Those workloads once had a dedicated synchronous runner
(``run_scenario``: fail links, fail ASes, restore links, drain); they
now run as one-phase episodes through ``run_episode``, whose injector
is an engine event.  This fixture is the oracle the deleted path left
behind: it was recorded *with ``run_scenario``* at the last commit that
had it, over all five builders and all four planes, and pins the full
transient report, the message counts and the repr-exact convergence
times — so the one-phase episode path must keep reproducing the
single-instant semantics byte for byte.

Regenerate (only when an *intentional* behavior change lands) with:

    PYTHONPATH=src python tests/experiments/test_single_instant_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.experiments.runner import PROTOCOLS, run_episode
from repro.experiments.scenarios import (
    link_recovery,
    provider_node_failure,
    single_provider_link_failure,
    two_link_failures_distinct_as,
    two_link_failures_same_as,
)
from repro.topology.generators import example_paper_topology

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "single_instant_golden.json"
)

BUILDERS = (
    single_provider_link_failure,
    two_link_failures_distinct_as,
    two_link_failures_same_as,
    provider_node_failure,
    link_recovery,
)
RNG_SEED = "embed"
SEED = 3


def run_fingerprint(builder, protocol: str) -> dict:
    """Everything one (builder, plane) run reports, JSON-shaped."""
    graph = example_paper_topology()
    run = run_episode(
        graph, builder(graph, random.Random(RNG_SEED)), protocol, seed=SEED
    )
    report = run.report
    return {
        "eligible": sorted(report.eligible),
        "affected": sorted(report.affected),
        "permanently_unreachable": sorted(report.permanently_unreachable),
        "looped": sorted(report.looped),
        "blackholed": sorted(report.blackholed),
        "timeline": [list(point) for point in report.timeline],
        "problem_timeline": [list(point) for point in report.problem_timeline],
        "announcements": run.announcements,
        "withdrawals": run.withdrawals,
        "initial_updates": run.initial_updates,
        "convergence_time": repr(run.convergence_time),
        "initial_convergence_time": repr(run.initial_convergence_time),
    }


def compute_golden() -> dict:
    return {
        builder.__name__: {
            protocol: run_fingerprint(builder, protocol)
            for protocol in PROTOCOLS
        }
        for builder in BUILDERS
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_one_phase_episode_matches_single_instant_golden(builder, protocol):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_fingerprint(builder, protocol) == golden[builder.__name__][protocol]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
