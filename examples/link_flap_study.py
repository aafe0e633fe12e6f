#!/usr/bin/env python3
"""Link-flap episode campaign with per-phase damage attribution.

The paper's Figure 2 fails a provider link once, cleanly.  Real
outages flap: the link fails, partially recovers, and fails again
while parts of the network still hold armed MRAI timers from the
previous round.  This study sweeps the packaged flap episode family
(``link_flap_episode``) over several instances and all four protocols,
then shows both views of the damage:

* the episode-wide comparison (problem intervals spanning phases), and
* the per-phase attribution table — which event of the episode
  disrupted whom (even phases fail the link, odd phases restore it).

Run:  python examples/link_flap_study.py [n_instances] [workers]

Any ``workers`` value produces byte-identical statistics (canonical
merge; see docs/scenarios.md for the episode determinism rules).
"""

import sys

from repro.experiments.figures import link_flap_comparison
from repro.experiments.parallel import ParallelRunner
from repro.experiments.reporting import ascii_bar_chart, format_table
from repro.experiments.runner import ExperimentConfig, PROTOCOL_LABELS
from repro.topology.generators import InternetTopologyConfig


def main(
    instances: int = 4,
    workers: int = 1,
    topology: InternetTopologyConfig | None = None,
    period: float = 35.0,
    flaps: int = 2,
) -> None:
    config = ExperimentConfig(
        seed=13,
        topology=topology
        or InternetTopologyConfig(
            seed=13, n_tier1=5, n_tier2=20, n_tier3=50, n_stub=160
        ),
        n_instances=instances,
    )
    print(
        f"Flapping a provider link {flaps}x (period {period:g}s) over "
        f"{instances} instances on a {config.topology.total_ases}-AS "
        f"topology..."
    )
    data = link_flap_comparison(
        config, runner=ParallelRunner(workers=workers), period=period, flaps=flaps
    )

    print()
    print(ascii_bar_chart(
        {PROTOCOL_LABELS[p]: v for p, v in data.mean_affected().items()},
        title="Mean ASes with transient problems (episode-wide)",
        unit=" ASes",
    ))

    print()
    print("Per-phase attribution (mean affected ASes per injection):")
    headers = ["protocol"] + [
        ("fail" if k % 2 == 0 else "restore") + f" #{k // 2}"
        for k in range(data.n_phases())
    ]
    rows = [
        [PROTOCOL_LABELS[p]] + [f"{v:.1f}" for v in values]
        for p, values in data.mean_affected_by_phase().items()
    ]
    print(format_table(headers, rows))

    print()
    for protocol, seconds in data.mean_disruption().items():
        print(f"  total data-plane disruption, {PROTOCOL_LABELS[protocol]}: "
              f"{seconds:.2f}s")


if __name__ == "__main__":
    main(
        instances=int(sys.argv[1]) if len(sys.argv) > 1 else 4,
        workers=int(sys.argv[2]) if len(sys.argv) > 2 else 1,
    )
