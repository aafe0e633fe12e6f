"""Analyses over topologies and simulation traces.

* :mod:`repro.analysis.transient` — counts ASes experiencing transient
  routing problems during convergence (Figures 2-3).
* :mod:`repro.analysis.phi` — the paper's disjoint-path probability
  Φ and its CDF (Figure 1), plus intelligent blue-provider selection.
* :mod:`repro.analysis.deployment` — partial-deployment estimates
  (section 6.3).
* :mod:`repro.analysis.cdf` — small CDF utilities.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.analysis.transient": (
            "TransientReport",
            "analyze_transient_problems",
        ),
        "repro.analysis.phi": (
            "PhiResult",
            "phi_for_destination",
            "phi_distribution",
            "uphill_paths_to_tier1",
        ),
        "repro.analysis.cdf": ("empirical_cdf",),
        "repro.analysis.deployment": ("partial_deployment_fraction",),
    },
)

__all__ = [
    "TransientReport",
    "analyze_transient_problems",
    "PhiResult",
    "phi_for_destination",
    "phi_distribution",
    "uphill_paths_to_tier1",
    "empirical_cdf",
    "partial_deployment_fraction",
]
