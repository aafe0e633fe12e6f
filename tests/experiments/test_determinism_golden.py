"""Golden determinism snapshot of a fixed-seed Figure 2 run.

The perf refactors (indexed topology views, cached decision keys,
memoized Φ, incremental transient analysis, heap compaction, pooled
transport channels, vectorized walk classification) must not change a
single simulated event: a fixed-seed run has to produce byte-identical
forwarding traces and message counts.  This test pins a fingerprint of
one Figure 2 instance (all four protocols) that was captured from the
pre-refactor implementation, plus the full-figure statistics of a
two-instance ``fig2_single_link_failure`` under the string-hashed
per-run seed scheme — and asserts the parallel path (``workers=4``)
reproduces those statistics byte-for-byte.

Regenerate (only when an *intentional* behavior change lands) with:

    PYTHONPATH=src python tests/experiments/test_determinism_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.experiments.figures import fig2_single_link_failure
from repro.experiments.runner import ExperimentConfig, PROTOCOLS, build_network
from repro.experiments.scenarios import single_provider_link_failure
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fig2_seed_golden.json"

#: Instances for the full-figure stats section (kept small: the golden
#: test runs in the tier-1 suite).
FIG2_INSTANCES = 2


def fig2_stats_fingerprint(workers: int) -> dict:
    """Exact (repr-level) statistics of a small fixed-seed Figure 2."""
    config = ExperimentConfig(seed=0, n_instances=FIG2_INSTANCES, workers=workers)
    data = fig2_single_link_failure(config)
    return {
        "mean_affected": {p: repr(v) for p, v in data.mean_affected().items()},
        "mean_convergence_time": {
            p: repr(v) for p, v in data.mean_convergence_time().items()
        },
        "mean_updates": {p: repr(v) for p, v in data.mean_updates().items()},
        "mean_initial_updates": {
            p: repr(v) for p, v in data.mean_initial_updates().items()
        },
        "mean_disruption": {p: repr(v) for p, v in data.mean_disruption().items()},
    }


def _trace_sha(trace) -> str:
    digest = hashlib.sha256()
    for change in trace.changes:
        digest.update(
            repr((change.time, change.asn, change.key, change.state)).encode()
        )
    return digest.hexdigest()


def compute_fingerprint() -> dict:
    """Run one Figure 2 instance per protocol and fingerprint it."""
    graph, _ = generate_internet_topology(InternetTopologyConfig())
    scenario = single_provider_link_failure(
        graph, random.Random("0:fig2-single-link:0")
    )
    failed_links = [event.link for _, event in scenario.steps]
    fingerprint: dict = {
        "scenario": {
            "destination": scenario.destination,
            "failed_links": sorted(map(list, failed_links)),
        }
    }
    for protocol in PROTOCOLS:
        network, _ = build_network(
            protocol, graph, scenario.destination, seed=0
        )
        initial_time = network.start()
        initial_announcements = network.stats.announcements
        initial_withdrawals = network.stats.withdrawals
        for a, b in failed_links:
            network.fail_link(a, b)
        convergence_time = network.run_to_convergence()
        fingerprint[protocol] = {
            "trace_sha": _trace_sha(network.trace),
            "trace_len": len(network.trace.changes),
            "announcements": network.stats.announcements,
            "withdrawals": network.stats.withdrawals,
            "initial_announcements": initial_announcements,
            "initial_withdrawals": initial_withdrawals,
            "messages_sent": network.transport.messages_sent,
            "events_processed": network.engine.events_processed,
            "initial_time": repr(initial_time),
            "convergence_time": repr(convergence_time),
        }
    fingerprint["fig2_stats"] = fig2_stats_fingerprint(workers=1)
    return fingerprint


def test_fixed_seed_run_matches_seed_implementation():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_fingerprint() == golden


def test_parallel_merge_matches_sequential_golden():
    """workers=4 must reproduce the golden workers=1 stats exactly."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fig2_stats_fingerprint(workers=4) == golden["fig2_stats"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_fingerprint(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
