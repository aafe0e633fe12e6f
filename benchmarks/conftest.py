"""Shared configuration for the figure-reproduction benchmarks.

Scale knobs (environment variables):

* ``REPRO_BENCH_INSTANCES`` — simulation instances per failure figure
  (default 10; the paper used 100 on its full-size graph).
* ``REPRO_BENCH_SCALE`` — multiplier on the default ~620-AS topology.

Each benchmark runs its experiment once (``pedantic`` round) and prints
the paper-vs-measured comparison; the known departures are listed in
docs/architecture.md ("Where this reproduction departs from the
paper").
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import ExperimentConfig
from repro.topology.generators import InternetTopologyConfig


def bench_instances() -> int:
    return int(os.environ.get("REPRO_BENCH_INSTANCES", "10"))


def bench_topology() -> InternetTopologyConfig:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    base = InternetTopologyConfig()
    if scale == 1.0:
        return base
    return InternetTopologyConfig(
        seed=base.seed,
        n_tier1=max(2, round(base.n_tier1 * min(scale, 2.0))),
        n_tier2=round(base.n_tier2 * scale),
        n_tier3=round(base.n_tier3 * scale),
        n_stub=round(base.n_stub * scale),
    )


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    return ExperimentConfig(
        seed=0, topology=bench_topology(), n_instances=bench_instances()
    )


def print_failure_figure(title, paper, measured):
    """Render a paper-vs-measured affected-AS comparison."""
    from repro.experiments.reporting import format_table
    from repro.experiments.runner import PROTOCOL_LABELS

    rows = []
    paper_bgp = paper.get("bgp")
    measured_bgp = measured.get("bgp") or 1.0
    for protocol in ("bgp", "rbgp-norci", "rbgp", "stamp"):
        rows.append(
            (
                PROTOCOL_LABELS[protocol],
                paper.get(protocol, "-"),
                f"{measured.get(protocol, 0.0):.1f}",
                f"{paper.get(protocol, 0) / paper_bgp:.3f}" if paper_bgp else "-",
                f"{measured.get(protocol, 0.0) / measured_bgp:.3f}",
            )
        )
    print()
    print(f"== {title} ==")
    print(
        format_table(
            ["protocol", "paper (27k ASes)", "measured", "paper/BGP", "measured/BGP"],
            rows,
        )
    )
