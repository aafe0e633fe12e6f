"""STAMP — the SelecTive Announcement Multi-Process routing protocol.

The paper's primary contribution: every AS runs two mostly-unchanged
BGP processes (red and blue) whose announcements toward *providers* are
made selective so the two processes compute complementary routes.  The
Lock attribute guarantees one blue downhill chain to a tier-1; the ET
attribute tells the data plane which process currently has stable
routes.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.stamp.coloring": (
            "BlueProviderSelector",
            "RandomBlueSelector",
            "IntelligentBlueSelector",
        ),
        "repro.stamp.node": ("STAMPNode",),
        "repro.stamp.network": ("STAMPNetwork", "STAMPConfig"),
    },
)

__all__ = [
    "BlueProviderSelector",
    "RandomBlueSelector",
    "IntelligentBlueSelector",
    "STAMPNode",
    "STAMPNetwork",
    "STAMPConfig",
]
