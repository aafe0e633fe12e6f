#!/usr/bin/env python3
"""Protocol comparison under failures (a miniature Figure 2).

Generates an Internet-like topology, replays the paper's single
provider-link failure scenario over several instances for BGP, R-BGP
(with and without RCI) and STAMP, and renders the comparison as an
ASCII bar chart.

Run:  python examples/failure_comparison.py [n_instances] [workers]

Pass ``workers`` > 1 to fan the (instance, protocol) grid over worker
processes; any worker count produces byte-identical statistics.
"""

import sys

from repro.experiments.figures import fig2_single_link_failure
from repro.experiments.parallel import ParallelRunner
from repro.experiments.reporting import ascii_bar_chart
from repro.experiments.runner import ExperimentConfig, PROTOCOL_LABELS
from repro.topology.generators import InternetTopologyConfig


def main(
    instances: int = 5,
    workers: int = 1,
    topology: InternetTopologyConfig | None = None,
) -> None:
    config = ExperimentConfig(
        seed=7,
        topology=topology
        or InternetTopologyConfig(
            seed=7, n_tier1=6, n_tier2=30, n_tier3=70, n_stub=250
        ),
        n_instances=instances,
    )
    print(f"Simulating {instances} single-link-failure instances on a "
          f"{config.topology.total_ases}-AS topology (be patient)...")
    data = fig2_single_link_failure(
        config, runner=ParallelRunner(workers=workers)
    )
    measured = {
        PROTOCOL_LABELS[p]: v for p, v in data.mean_affected().items()
    }
    print()
    print(ascii_bar_chart(
        measured,
        title="Mean ASes with transient problems (single link failure)",
        unit=" ASes",
    ))
    print()
    disruption = data.mean_disruption()
    for protocol, seconds in disruption.items():
        print(f"  data-plane disruption, {PROTOCOL_LABELS[protocol]}: "
              f"{seconds:.2f}s")


if __name__ == "__main__":
    main(
        instances=int(sys.argv[1]) if len(sys.argv) > 1 else 5,
        workers=int(sys.argv[2]) if len(sys.argv) > 2 else 1,
    )
