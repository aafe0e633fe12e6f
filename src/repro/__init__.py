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

from importlib import import_module


def _lazy_exports(namespace, modules):
    """The PEP 562 ``(__getattr__, __dir__)`` pair of a package whose
    public names are looked up where they are defined — ``modules`` maps
    a defining module to the names it provides — on first access, and
    cached in the package's ``namespace`` so the second access is an
    ordinary attribute read.  Importing a package therefore loads none
    of its submodules; a command pays for what it runs."""
    package = namespace["__name__"]
    origin = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(origin[name]), name)
        return value

    def __dir__():
        return sorted({*namespace, *origin})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.types": (
            "ASN",
            "ASPath",
            "Color",
            "EventType",
            "Outcome",
            "Relationship",
        ),
        "repro.topology.graph": ("ASGraph",),
        "repro.topology.generators": (
            "InternetTopologyConfig",
            "generate_internet_topology",
            "example_paper_topology",
        ),
        "repro.routing.static": ("compute_stable_routes",),
        "repro.bgp.network": ("BGPNetwork", "NetworkConfig"),
        "repro.rbgp.network": ("RBGPNetwork",),
        "repro.stamp.network": ("STAMPConfig", "STAMPNetwork"),
        "repro.analysis.transient": ("analyze_transient_problems",),
        "repro.analysis.phi": ("phi_distribution", "phi_for_destination"),
        "repro.experiments.runner": ("ExperimentConfig", "run_episode"),
        "repro.experiments.scenarios": ("Episode",),
        "repro.experiments.figures": (
            "fig1_phi_cdf",
            "fig2_single_link_failure",
            "fig3a_two_links_distinct_as",
            "fig3b_two_links_same_as",
        ),
    },
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
