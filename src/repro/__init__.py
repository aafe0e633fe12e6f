"""Reproduction of "Reliable Interdomain Routing Through Multiple
Complementary Routing Processes" (Liao, Gao, Guérin, Zhang — ACM
ReArch'08 / CoNEXT 2008 workshop).

The package implements the STAMP protocol and everything it is
evaluated against: an AS-level BGP simulator with Gao-Rexford policies,
the R-BGP baseline (with and without RCI), Internet-like topology
generation, Gao's relationship-inference algorithm, data-plane walk
analysis, and the full experiment harness regenerating the paper's
figures.  See ``docs/architecture.md`` for the system inventory and
``README.md`` for how to regenerate each figure.
"""

from repro.types import ASN, ASPath, Color, EventType, Outcome, Relationship
from repro.topology import (
    ASGraph,
    InternetTopologyConfig,
    generate_internet_topology,
    example_paper_topology,
)
from repro.routing import compute_stable_routes
from repro.bgp import BGPNetwork, NetworkConfig
from repro.rbgp import RBGPNetwork
from repro.stamp import STAMPConfig, STAMPNetwork
from repro.analysis import (
    analyze_transient_problems,
    phi_distribution,
    phi_for_destination,
)
from repro.experiments import (
    ExperimentConfig,
    Episode,
    run_episode,
    fig1_phi_cdf,
    fig2_single_link_failure,
    fig3a_two_links_distinct_as,
    fig3b_two_links_same_as,
)

__version__ = "1.0.0"

__all__ = [
    "ASN",
    "ASPath",
    "Color",
    "EventType",
    "Outcome",
    "Relationship",
    "ASGraph",
    "InternetTopologyConfig",
    "generate_internet_topology",
    "example_paper_topology",
    "compute_stable_routes",
    "BGPNetwork",
    "NetworkConfig",
    "RBGPNetwork",
    "STAMPConfig",
    "STAMPNetwork",
    "analyze_transient_problems",
    "phi_distribution",
    "phi_for_destination",
    "ExperimentConfig",
    "Episode",
    "run_episode",
    "fig1_phi_cdf",
    "fig2_single_link_failure",
    "fig3a_two_links_distinct_as",
    "fig3b_two_links_same_as",
    "__version__",
]
