"""Golden determinism snapshot of a fixed-seed 64-flap storm.

The long-horizon companion to ``test_episode_golden.py``: a 128-phase
link-flap storm whose boundaries arrive every two simulated seconds,
so nearly all analyzer work happens on the cross-boundary patch path
(session, successor table, and dependency index carried between
segments).  The fixture pins the complete observable behavior for all
four protocols and asserts the parallel path (``workers=4``)
reproduces the sequential statistics byte-for-byte — the patch path
must not introduce any worker- or ordering-dependence.

Regenerate (only when an *intentional* behavior change lands) with:

    PYTHONPATH=src python tests/experiments/test_storm_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.figures import link_flap_comparison
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentConfig
from repro.topology.generators import InternetTopologyConfig

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "storm_campaign_golden.json"

#: Small fixed topology: the storm runs in the tier-1 suite.
TOPOLOGY = InternetTopologyConfig(
    seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
)
INSTANCES = 1
PERIOD = 2.0
FLAPS = 64
SEED = 9


def storm_campaign_fingerprint(workers: int) -> dict:
    """Exact (repr-level) statistics of the fixed-seed storm campaign."""
    config = ExperimentConfig(seed=SEED, topology=TOPOLOGY, n_instances=INSTANCES)
    data = link_flap_comparison(
        config, runner=ParallelRunner(workers=workers), period=PERIOD, flaps=FLAPS
    )
    return {
        "episodes": {
            p: [run.episode.description for run in runs]
            for p, runs in data.runs.items()
        },
        "affected": {
            p: [run.affected for run in runs] for p, runs in data.runs.items()
        },
        "phase_affected": {
            p: [
                [phase.report.affected_count for phase in run.phases]
                for run in runs
            ]
            for p, runs in data.runs.items()
        },
        "phase_times": {
            p: [[repr(phase.time) for phase in run.phases] for run in runs]
            for p, runs in data.runs.items()
        },
        "updates": {
            p: [run.updates for run in runs] for p, runs in data.runs.items()
        },
        "initial_updates": {
            p: [run.initial_updates for run in runs]
            for p, runs in data.runs.items()
        },
        "convergence_time": {
            p: [repr(run.convergence_time) for run in runs]
            for p, runs in data.runs.items()
        },
        "disruption": {
            p: [repr(run.disruption_duration) for run in runs]
            for p, runs in data.runs.items()
        },
        "mean_affected": {
            p: repr(v) for p, v in data.mean_affected().items()
        },
        "mean_affected_by_phase": {
            p: [repr(v) for v in values]
            for p, values in data.mean_affected_by_phase().items()
        },
    }


def test_fixed_seed_storm_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert storm_campaign_fingerprint(workers=1) == golden


def test_parallel_storm_matches_golden():
    """workers=4 must reproduce the golden workers=1 storm exactly."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert storm_campaign_fingerprint(workers=4) == golden


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(storm_campaign_fingerprint(workers=1), indent=2) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
