"""Regeneration of every figure and reported number in the paper.

Each function returns a small dataclass with the series the paper
plots, plus convenience summaries.  ``benchmarks/fidelity.py`` holds
the paper's claims as one table over these functions: it runs each
once, prints paper beside measured and checks every claim's bound;
README.md ("Benchmarks and the perf gate") says how to run it.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.analysis.cdf import empirical_cdf, fraction_at_most, fraction_greater, mean
from repro.analysis.deployment import (
    full_deployment_fraction,
    partial_deployment_fraction,
)
from repro.analysis.phi import (
    PhiResult,
    phi_distribution,
    phi_with_intelligent_selection,
)
from repro.experiments.parallel import FailureFigureData, ParallelRunner
from repro.experiments.runner import ExperimentConfig
from repro.experiments.scenarios import (
    CAMPAIGNS,
    EpisodeBuilder,
    single_provider_link_failure,
)
from repro.topology.generators import generate_internet_topology
from repro.topology.graph import ASGraph


# ----------------------------------------------------------------------
# Figure 1 — CDF of Φ
# ----------------------------------------------------------------------


@dataclass
class Figure1Data:
    """CDF of the disjoint-path probability Φ over destinations."""

    results: List[PhiResult]
    cdf: List[Tuple[float, float]]
    mean_phi: float
    fraction_below_070: float
    fraction_above_090: float


def fig1_phi_cdf(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> Figure1Data:
    """Figure 1: Φ for all destinations and its CDF."""
    config = config or ExperimentConfig()
    if graph is None:
        graph, _ = generate_internet_topology(config.topology)
    results = phi_distribution(graph)
    phis = [r.phi for r in results]
    return Figure1Data(
        results=results,
        cdf=empirical_cdf(phis),
        mean_phi=mean(phis),
        fraction_below_070=fraction_at_most(phis, 0.7),
        fraction_above_090=fraction_greater(phis, 0.9),
    )


# ----------------------------------------------------------------------
# Figures 2/3 — transient problems under failures
# ----------------------------------------------------------------------


def episode_campaign(
    builder: EpisodeBuilder,
    kind: str,
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    runner: ParallelRunner = ParallelRunner(),
) -> FailureFigureData:
    """Sweep one episode family over instances x protocols.

    Every failure figure and every campaign is this one grid.  ``config``
    says what it computes; ``runner`` how it executes: its ``workers``
    processes fan out the independent simulations under the supervised
    pool (per-unit retry/timeout, structured failure reporting,
    optional result ledger), and any runner yields byte-identical
    statistics (results are merged in canonical order and every unit
    re-derives its seeds from the deterministic
    ``f"{seed}:{kind}:{instance}"`` scheme).  Raises the builder's own
    ``ConfigurationError``, before any unit is attempted or a ledger
    opened, when the builder refuses its keywords or the graph.
    """
    config = config or ExperimentConfig()
    if graph is None:
        graph, _ = generate_internet_topology(config.topology)
    return runner.run_failure_comparison(
        builder, kind, config.seed, config.n_instances, config.protocols, graph
    )


def run_campaign(
    name: str,
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    runner: ParallelRunner = ParallelRunner(),
    **params: Any,
) -> FailureFigureData:
    """Run the :data:`CAMPAIGNS` entry ``name``; ``params`` are its
    builder keywords (unset ones keep the builder's defaults)."""
    kind = CAMPAIGNS[name]
    return episode_campaign(
        kind.bind(**params), kind.unit_kind, config, graph=graph, runner=runner
    )


#: The packaged figure functions: the first five :data:`CAMPAIGNS`
#: entries, in its order (the front-end names are written there, and
#: only there; a family appended to the catalogue gets no name here).
#: Figure 2, a single provider-link failure at a multi-homed AS;
#: Figure 3(a), two simultaneous link failures at distinct ASes;
#: Figure 3(b), two at the same AS; the section 6.2.2 single AS (node)
#: failure; and the campaign whose provider link flaps ``flaps`` times,
#: ``period`` s apart.
(
    fig2_single_link_failure,
    fig3a_two_links_distinct_as,
    fig3b_two_links_same_as,
    node_failure_comparison,
    link_flap_comparison,
    *_,
) = (functools.partial(run_campaign, name) for name in CAMPAIGNS)


# ----------------------------------------------------------------------
# Section 6.1 / 6.3 — reported numbers
# ----------------------------------------------------------------------


@dataclass
class IntelligentSelectionData:
    """Random vs intelligent locked-blue-provider selection."""

    mean_phi_random: float
    mean_phi_intelligent: float


def sec61_intelligent_selection(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> IntelligentSelectionData:
    """Section 6.1: intelligent origin selection (92% -> 97%)."""
    config = config or ExperimentConfig()
    if graph is None:
        graph, _ = generate_internet_topology(config.topology)
    random_results = phi_distribution(graph)
    intelligent = [
        phi_with_intelligent_selection(graph, dest) for dest in graph.ases
    ]
    return IntelligentSelectionData(
        mean_phi_random=mean([r.phi for r in random_results]),
        mean_phi_intelligent=mean([r.phi for r in intelligent]),
    )


@dataclass
class PartialDeploymentData:
    """Tier-1-only deployment vs full deployment."""

    tier1_only_fraction: float
    full_deployment_fraction: float


def sec63_partial_deployment(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    trials: int = 16,
) -> PartialDeploymentData:
    """Section 6.3: ~75% of ASes keep disjoint paths at tier-1-only."""
    config = config or ExperimentConfig()
    if graph is None:
        graph, _ = generate_internet_topology(config.topology)
    return PartialDeploymentData(
        tier1_only_fraction=partial_deployment_fraction(
            graph, trials=trials, seed=config.seed
        ),
        full_deployment_fraction=full_deployment_fraction(graph),
    )


@dataclass
class OverheadData:
    """STAMP vs BGP update-message overhead.

    The paper's "less than twice" claim is about running two parallel
    processes; the clean analogue is the initial-convergence ratio.
    The post-event (episode) ratio is also reported: when a failure
    hits the locked blue chain the entire blue tree rebuilds, which a
    single-process BGP has no analogue for.
    """

    mean_initial_updates_bgp: float
    mean_initial_updates_stamp: float
    mean_episode_updates_bgp: float
    mean_episode_updates_stamp: float

    @property
    def initial_ratio(self) -> float:
        """STAMP/BGP update ratio for initial convergence (paper: <2)."""
        if self.mean_initial_updates_bgp == 0:
            return 0.0
        return self.mean_initial_updates_stamp / self.mean_initial_updates_bgp

    @property
    def episode_ratio(self) -> float:
        """STAMP/BGP update ratio for the failure episode."""
        if self.mean_episode_updates_bgp == 0:
            return 0.0
        return self.mean_episode_updates_stamp / self.mean_episode_updates_bgp


def sec63_message_overhead(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    runner: ParallelRunner = ParallelRunner(),
) -> OverheadData:
    """Section 6.3: two processes cost less than 2x the updates."""
    config = config or ExperimentConfig()
    restricted = dataclasses.replace(config, protocols=("bgp", "stamp"))
    data = episode_campaign(
        single_provider_link_failure, "sec63-overhead", restricted,
        graph=graph, runner=runner,
    )
    initial = data.mean_initial_updates()
    episode = data.mean_updates()
    return OverheadData(
        mean_initial_updates_bgp=initial.get("bgp", 0.0),
        mean_initial_updates_stamp=initial.get("stamp", 0.0),
        mean_episode_updates_bgp=episode.get("bgp", 0.0),
        mean_episode_updates_stamp=episode.get("stamp", 0.0),
    )


@dataclass
class ConvergenceDelayData:
    """BGP vs STAMP convergence after the same events.

    ``mean_seconds_*`` is control-plane quiescence; ``disruption_*`` is
    the data-plane view (how long packets were actually lost), which is
    the convergence users experience and the sense in which STAMP is
    faster.
    """

    mean_seconds_bgp: float
    mean_seconds_stamp: float
    mean_disruption_bgp: float
    mean_disruption_stamp: float


def sec63_convergence_delay(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    runner: ParallelRunner = ParallelRunner(),
) -> ConvergenceDelayData:
    """Section 6.3: STAMP converges no slower than BGP (data plane)."""
    config = config or ExperimentConfig()
    restricted = dataclasses.replace(config, protocols=("bgp", "stamp"))
    data = episode_campaign(
        single_provider_link_failure, "sec63-delay", restricted,
        graph=graph, runner=runner,
    )
    times = data.mean_convergence_time()
    disruption = data.mean_disruption()
    return ConvergenceDelayData(
        mean_seconds_bgp=times.get("bgp", 0.0),
        mean_seconds_stamp=times.get("stamp", 0.0),
        mean_disruption_bgp=disruption.get("bgp", 0.0),
        mean_disruption_stamp=disruption.get("stamp", 0.0),
    )
