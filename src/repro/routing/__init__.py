"""Static (converged-state) routing computations.

The event-driven simulators in :mod:`repro.bgp`, :mod:`repro.rbgp` and
:mod:`repro.stamp` replay protocol dynamics; this package computes the
*stable* Gao-Rexford solution directly, which is what BGP provably
converges to under prefer-customer / valley-free policies.  It is used
to synthesize RouteViews-style tables, to seed analyses, and as an
oracle the dynamic simulators are cross-validated against.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.routing.static": (
            "RouteClass",
            "StableRoute",
            "StableRoutingState",
            "compute_stable_routes",
        ),
    },
)

__all__ = [
    "RouteClass",
    "StableRoute",
    "StableRoutingState",
    "compute_stable_routes",
]
