"""Analyses over topologies and simulation traces.

* :mod:`repro.analysis.transient` — counts ASes experiencing transient
  routing problems during convergence (Figures 2-3).
* :mod:`repro.analysis.phi` — the paper's disjoint-path probability
  Φ and its CDF (Figure 1), plus intelligent blue-provider selection.
* :mod:`repro.analysis.deployment` — partial-deployment estimates
  (section 6.3).
* :mod:`repro.analysis.cdf` — small CDF utilities.
"""
