"""Ablation — do the Figure 2 orderings hold across topology scales?

The scale-substitution argument (docs/architecture.md, "Where this
reproduction departs from the paper") rests on the protocol ordering
being scale-invariant; this bench re-runs a reduced Figure 2 on half-
and full-size graphs and checks the ordering at each size.
"""

import pytest

from repro.experiments.figures import fig2_single_link_failure
from repro.experiments.runner import ExperimentConfig
from repro.topology.generators import InternetTopologyConfig

SCALES = {
    "half (~310 ASes)": InternetTopologyConfig(
        seed=3, n_tier1=5, n_tier2=24, n_tier3=60, n_stub=220
    ),
    "full (~620 ASes)": InternetTopologyConfig(seed=3),
}


def run_all_scales():
    results = {}
    for label, topology in SCALES.items():
        config = ExperimentConfig(seed=1, topology=topology, n_instances=6)
        results[label] = fig2_single_link_failure(config).mean_affected()
    return results


def test_ablation_scale_invariance(benchmark):
    results = benchmark.pedantic(run_all_scales, rounds=1, iterations=1)
    print()
    print("== Ablation: Figure 2 ordering across scales ==")
    for label, measured in results.items():
        print(f"  {label}: " + ", ".join(f"{k}={v:.1f}" for k, v in measured.items()))
        assert measured["bgp"] >= measured["rbgp-norci"]
        assert measured["rbgp-norci"] >= measured["stamp"] - 0.05 * measured["bgp"]
        assert measured["rbgp"] < 0.05 * max(measured["bgp"], 1.0)
