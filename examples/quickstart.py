#!/usr/bin/env python3
"""Quickstart: run STAMP on a small topology and survive a failure.

Builds the paper-style example topology, converges STAMP for one
destination prefix, fails a provider link, and shows that the data
plane keeps delivering throughout — while plain BGP on the same event
suffers transient blackholes.

Run:  python examples/quickstart.py
"""

from repro.analysis.transient import analyze_transient_problems
from repro.bgp.network import BGPNetwork
from repro.stamp.network import STAMPNetwork
from repro.topology.generators import example_paper_topology
from repro.types import Color, normalize_link


def main() -> None:
    graph = example_paper_topology()
    destination = 90
    failed_link = (90, 70)
    print(f"Topology: {graph}")
    print(f"Destination prefix originated by AS {destination}")

    # --- STAMP: two complementary processes per AS -------------------
    stamp = STAMPNetwork(graph, destination, seed=1)
    stamp.start()
    print(f"\nSTAMP converged; locked blue provider of the origin: "
          f"{stamp.speakers[destination].locked_blue_provider}")
    for asn in (10, 30, 60):
        print(f"  AS {asn}: red={stamp.best_path(asn, Color.RED)} "
              f"blue={stamp.best_path(asn, Color.BLUE)}")

    initial = stamp.forwarding_state()
    stamp.fail_link(*failed_link)
    stamp.run_to_convergence()
    report = analyze_transient_problems(
        stamp.trace, initial, stamp.data_plane(), graph.ases,
        failed_links=frozenset({normalize_link(*failed_link)}),
    )
    print(f"\nAfter failing link {failed_link}:")
    print(f"  STAMP ASes with transient problems: {report.affected_count}")

    # --- plain BGP on the same event ----------------------------------
    bgp = BGPNetwork(graph, destination, seed=1)
    bgp.start()
    initial = bgp.forwarding_state()
    bgp.fail_link(*failed_link)
    bgp.run_to_convergence()
    report = analyze_transient_problems(
        bgp.trace, initial, bgp.data_plane(), graph.ases,
        failed_links=frozenset({normalize_link(*failed_link)}),
    )
    print(f"  BGP   ASes with transient problems: {report.affected_count}")

    # --- scaling up ---------------------------------------------------
    # Full figure reproductions fan their independent (instance,
    # protocol) simulations out over worker processes; results are
    # byte-identical for any worker count:
    #
    #   repro-stamp --instances 100 --workers 8 fig2
    #
    # or from Python (what a grid computes is the config; how it runs,
    # the runner):
    #
    #   from repro.experiments.figures import fig2_single_link_failure
    #   from repro.experiments.parallel import ParallelRunner
    #   from repro.experiments.runner import ExperimentConfig
    #   fig2_single_link_failure(
    #       ExperimentConfig(n_instances=100), runner=ParallelRunner(workers=8)
    #   )


if __name__ == "__main__":
    main()
