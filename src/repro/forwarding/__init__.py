"""Data-plane modeling: packet walks and transient-problem detection.

Given a snapshot of every AS's control-plane state, these modules walk
the data plane from each AS toward the destination and classify the
outcome as delivered, looped, or blackholed — the paper's definition of
a transient routing problem (section 6.2).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.forwarding.walk": (
            "WalkClassifier",
            "classify_functional_graph",
        ),
        "repro.forwarding.bgp_plane": ("BGPDataPlane",),
        "repro.forwarding.rbgp_plane": ("RBGPDataPlane",),
        "repro.forwarding.stamp_plane": ("STAMPDataPlane",),
    },
)

__all__ = [
    "WalkClassifier",
    "classify_functional_graph",
    "BGPDataPlane",
    "RBGPDataPlane",
    "STAMPDataPlane",
]
