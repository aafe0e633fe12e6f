"""Event-driven BGP simulator (policy path-vector, Gao-Rexford policies).

This package is the substrate every protocol in the paper builds on:
plain BGP is the baseline of Figures 2-3, R-BGP subclasses the speaker,
and each STAMP color process is one (slightly extended) speaker with a
selective-announcement gate installed.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.bgp.messages": ("Announcement", "Withdrawal"),
        "repro.bgp.ribs": ("Route", "AdjRibIn"),
        "repro.bgp.policy": (
            "export_allowed",
            "import_accept",
            "relationship_pref",
        ),
        "repro.bgp.decision": ("best_route", "route_sort_key"),
        "repro.bgp.speaker": ("BGPSpeaker", "SpeakerConfig"),
        "repro.bgp.network": ("BGPNetwork", "NetworkConfig"),
    },
)

__all__ = [
    "Announcement",
    "Withdrawal",
    "Route",
    "AdjRibIn",
    "export_allowed",
    "import_accept",
    "relationship_pref",
    "best_route",
    "route_sort_key",
    "BGPSpeaker",
    "SpeakerConfig",
    "BGPNetwork",
    "NetworkConfig",
]
