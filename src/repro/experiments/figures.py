"""Regeneration of every figure and reported number in the paper.

Each function returns a small dataclass with the series the paper
plots, plus convenience summaries.  The ``benchmarks/`` tree exposes
one pytest-benchmark target per figure that calls these, prints the
paper-vs-measured comparison and asserts the paper's qualitative
shape; README.md ("Benchmarks and the perf gate") says how to run them.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.experiments.parallel import ParallelRunner
from repro.experiments.supervisor import UnitFailure
from repro.experiments.runner import EpisodeRun, ExperimentConfig
from repro.experiments.scenarios import (
    Episode,
    link_flap_episode,
    provider_node_failure,
    single_provider_link_failure,
    two_link_failures_distinct_as,
    two_link_failures_same_as,
)
from repro.topology.generators import generate_internet_topology
from repro.topology.graph import ASGraph

EpisodeBuilder = Callable[[ASGraph, random.Random], Episode]


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


@dataclass
class FailureFigureData:
    """Per-protocol run lists of one campaign and their aggregates.

    The ``mean_*`` aggregates read each run's episode-wide report (a
    single-instant figure's only one); ``mean_affected_by_phase``
    breaks a multi-phase campaign down by injection instant.

    ``failures`` is the campaign's structured failure report: units
    that exhausted every supervised retry.  A failed unit is omitted
    from its protocol's ``runs`` list (the aggregates below simply see
    one fewer sample) — a failure-free campaign is byte-identical to
    the pre-supervision output.
    """

    scenario_kind: str
    runs: Dict[str, List[EpisodeRun]] = field(default_factory=dict)
    failures: List[UnitFailure] = field(default_factory=list)

    def mean_affected(self) -> Dict[str, float]:
        """Protocol -> mean number of affected ASes (the bar heights)."""
        return {
            protocol: statistics.fmean(run.affected for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def mean_convergence_time(self) -> Dict[str, float]:
        """Protocol -> mean simulated convergence seconds."""
        return {
            protocol: statistics.fmean(run.convergence_time for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def mean_updates(self) -> Dict[str, float]:
        """Protocol -> mean update messages during the episode."""
        return {
            protocol: statistics.fmean(run.updates for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def mean_initial_updates(self) -> Dict[str, float]:
        """Protocol -> mean updates to reach initial convergence."""
        return {
            protocol: statistics.fmean(run.initial_updates for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def mean_disruption(self) -> Dict[str, float]:
        """Protocol -> mean data-plane disruption seconds."""
        return {
            protocol: statistics.fmean(run.disruption_duration for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def n_phases(self) -> int:
        """Number of comparable phases per episode.

        The packaged builders produce uniform phase counts; should a
        custom family vary (e.g. a degenerate instance), aggregation
        covers the common prefix rather than raising.
        """
        counts = [
            len(run.phases) for runs in self.runs.values() for run in runs
        ]
        return min(counts) if counts else 0

    def mean_affected_by_phase(self) -> Dict[str, List[float]]:
        """Protocol -> per-phase mean affected-AS counts.

        Phase ``k``'s value averages the *phase-scoped* reports (each
        re-evaluates eligibility at its injection instant), so the
        series shows which event of the episode did the damage.
        """
        return {
            protocol: [
                statistics.fmean(run.phases[k].report.affected_count for run in runs)
                for k in range(self.n_phases())
            ]
            for protocol, runs in self.runs.items()
            if runs
        }


def episode_campaign(
    builder: EpisodeBuilder,
    kind: str,
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> FailureFigureData:
    """Sweep one episode family over instances x protocols.

    Every failure figure and every campaign is this one grid.
    Delegates to :class:`ParallelRunner`: ``config.workers`` processes
    fan out the independent simulations under the supervised pool
    (per-unit retry/timeout, structured failure reporting, optional
    result ledger), and any worker count yields byte-identical
    statistics (results are merged in canonical order and every unit
    re-derives its seeds from the deterministic
    ``f"{seed}:{kind}:{instance}"`` scheme).
    """
    config = config or ExperimentConfig()
    if graph is None:
        graph, _ = generate_internet_topology(config.topology)
    runner = ParallelRunner(
        workers=config.workers,
        max_attempts=config.retries + 1,
        unit_timeout=config.unit_timeout,
        backoff_base=config.retry_backoff,
        ledger=config.ledger_path,
    )
    outcome = runner.run_failure_comparison(
        builder, kind, config.seed, config.n_instances, config.protocols, graph
    )
    return FailureFigureData(
        scenario_kind=kind, runs=outcome.runs, failures=outcome.failures
    )


def fig2_single_link_failure(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> FailureFigureData:
    """Figure 2: single provider-link failure at a multi-homed AS."""
    return episode_campaign(
        single_provider_link_failure, "fig2-single-link", config, graph=graph
    )


def fig3a_two_links_distinct_as(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> FailureFigureData:
    """Figure 3(a): two simultaneous link failures at distinct ASes."""
    return episode_campaign(
        two_link_failures_distinct_as, "fig3a-distinct-as", config, graph=graph
    )


def fig3b_two_links_same_as(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> FailureFigureData:
    """Figure 3(b): two simultaneous link failures at the same AS."""
    return episode_campaign(
        two_link_failures_same_as, "fig3b-same-as", config, graph=graph
    )


def node_failure_comparison(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
) -> FailureFigureData:
    """Section 6.2.2 text: single AS (node) failure comparison."""
    return episode_campaign(
        provider_node_failure, "node-failure", config, graph=graph
    )


# ----------------------------------------------------------------------
# Multi-phase campaigns — workloads beyond the paper's single instants
# ----------------------------------------------------------------------


def link_flap_comparison(
    config: Optional[ExperimentConfig] = None,
    *,
    graph: Optional[ASGraph] = None,
    period: float = 40.0,
    flaps: int = 2,
) -> FailureFigureData:
    """Campaign: a provider link flaps (fail/recover x ``flaps``).

    The episode-model counterpart of Figure 2: same single-link
    population, but the link fails, partially recovers, and re-fails —
    the workload that distinguishes protocols by how they cope with
    churn *during* convergence rather than after a clean event.
    """
    builder = functools.partial(link_flap_episode, period=period, flaps=flaps)
    return episode_campaign(builder, "link-flap", config, graph=graph)


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
) -> OverheadData:
    """Section 6.3: two processes cost less than 2x the updates."""
    config = config or ExperimentConfig()
    restricted = dataclasses.replace(config, protocols=("bgp", "stamp"))
    data = episode_campaign(
        single_provider_link_failure, "sec63-overhead", restricted, graph=graph
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
) -> ConvergenceDelayData:
    """Section 6.3: STAMP converges no slower than BGP (data plane)."""
    config = config or ExperimentConfig()
    restricted = dataclasses.replace(config, protocols=("bgp", "stamp"))
    data = episode_campaign(
        single_provider_link_failure, "sec63-delay", restricted, graph=graph
    )
    times = data.mean_convergence_time()
    disruption = data.mean_disruption()
    return ConvergenceDelayData(
        mean_seconds_bgp=times.get("bgp", 0.0),
        mean_seconds_stamp=times.get("stamp", 0.0),
        mean_disruption_bgp=disruption.get("bgp", 0.0),
        mean_disruption_stamp=disruption.get("stamp", 0.0),
    )
