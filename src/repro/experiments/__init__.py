"""Experiment harness: episodes, the protocol runner, figure regeneration.

Each figure/table of the paper's evaluation maps to one function in
:mod:`repro.experiments.figures`; the pytest-benchmark targets under
``benchmarks/`` call these and print the paper-shaped series.
"""

from repro.experiments.scenarios import (
    Episode,
    EpisodeEvent,
    EventKind,
    single_provider_link_failure,
    two_link_failures_distinct_as,
    two_link_failures_same_as,
    provider_node_failure,
    link_recovery,
    fail_as,
    fail_link,
    restore_as,
    restore_link,
    link_flap_episode,
    staggered_maintenance_episode,
    correlated_outage_episode,
)
from repro.experiments.runner import (
    EpisodePhase,
    EpisodeRun,
    ExperimentConfig,
    run_episode,
    PROTOCOLS,
)
from repro.experiments.canonical import (
    LEDGER_SALT,
    canonical_json,
    graph_content_hash,
    unit_key,
)
from repro.experiments.ledger import ResultLedger
from repro.experiments.supervisor import (
    AttemptFailure,
    SupervisedOutcome,
    Supervisor,
    UnitFailure,
)
from repro.experiments.parallel import ParallelRunner
from repro.experiments.figures import (
    Figure1Data,
    FailureFigureData,
    episode_campaign,
    link_flap_comparison,
    fig1_phi_cdf,
    fig2_single_link_failure,
    fig3a_two_links_distinct_as,
    fig3b_two_links_same_as,
    node_failure_comparison,
    sec61_intelligent_selection,
    sec63_partial_deployment,
    sec63_message_overhead,
    sec63_convergence_delay,
)
from repro.experiments.reporting import ascii_bar_chart, format_table

__all__ = [
    "Episode",
    "EpisodeEvent",
    "EventKind",
    "EpisodePhase",
    "EpisodeRun",
    "fail_as",
    "fail_link",
    "restore_as",
    "restore_link",
    "link_flap_episode",
    "staggered_maintenance_episode",
    "correlated_outage_episode",
    "run_episode",
    "episode_campaign",
    "link_flap_comparison",
    "single_provider_link_failure",
    "two_link_failures_distinct_as",
    "two_link_failures_same_as",
    "provider_node_failure",
    "link_recovery",
    "ExperimentConfig",
    "PROTOCOLS",
    "Figure1Data",
    "FailureFigureData",
    "fig1_phi_cdf",
    "fig2_single_link_failure",
    "fig3a_two_links_distinct_as",
    "fig3b_two_links_same_as",
    "node_failure_comparison",
    "sec61_intelligent_selection",
    "sec63_partial_deployment",
    "sec63_message_overhead",
    "sec63_convergence_delay",
    "ascii_bar_chart",
    "format_table",
    "LEDGER_SALT",
    "canonical_json",
    "graph_content_hash",
    "unit_key",
    "ResultLedger",
    "AttemptFailure",
    "SupervisedOutcome",
    "Supervisor",
    "UnitFailure",
    "ParallelRunner",
]
