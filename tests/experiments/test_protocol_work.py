"""The simulated work of one unit, pinned per plane.

A speed-up of the speakers, the transport or the engine must come from
doing the same work faster, never from doing less of it.  On the
62-AS bench graph, one ``fig2`` instance and one 8-flap storm run on
every plane (the R-BGP pair through the twin start, as a campaign runs
them), and every counter of simulated work is pinned: events executed,
messages sent / delivered / lost, announcements and withdrawals, and
forwarding changes recorded.  The numbers were recorded before the
speaker's receive → decide → export → send pass was flattened and must
never be re-pinned to make a change pass.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    _acquire_started_network,
    clear_twin_start_cache,
    collect_episode_segments,
    derive_run_seed,
)
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
)
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)

#: A campaign's grid order: the R-BGP twin that runs second takes the
#: first one's parked start.
GRID = ("bgp", "rbgp", "rbgp-norci", "stamp")

#: (events, sent, delivered, lost, announcements, withdrawals, changes)
#: per plane, recorded at the commit before the flattened speaker pass.
PINNED = {
    "fig2": {
        "bgp": (280, 242, 242, 0, 227, 15, 56),
        "rbgp": (399, 361, 361, 0, 312, 49, 114),
        "rbgp-norci": (397, 359, 359, 0, 321, 38, 112),
        "stamp": (614, 501, 501, 0, 475, 26, 218),
    },
    "flap": {
        "bgp": (280, 216, 216, 0, 203, 13, 40),
        "rbgp": (357, 300, 300, 0, 261, 39, 90),
        "rbgp-norci": (357, 300, 300, 0, 261, 39, 90),
        "stamp": (1137, 838, 838, 0, 663, 175, 488),
    },
}

BUILDERS = {
    "fig2": ("fig2-single-link", single_provider_link_failure),
    "flap": (
        "link-flap",
        functools.partial(link_flap_episode, period=2.0, flaps=8),
    ),
}


@pytest.fixture(scope="module")
def bench_graph():
    graph, _ = generate_internet_topology(
        InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)
    )
    return graph


def _work(graph, campaign, seed=0, instance=0):
    """Every plane's work counters for one unit of ``campaign``."""
    kind, builder = BUILDERS[campaign]
    episode = builder(graph, random.Random(f"{seed}:{kind}:{instance}"))
    run_seed = derive_run_seed(seed, kind, instance)
    clear_twin_start_cache()
    work = {}
    try:
        for protocol in GRID:
            network, _, _ = _acquire_started_network(
                graph, episode.destination, protocol, run_seed,
                episode.pre_failed_links,
            )
            if protocol == "rbgp":
                assert runner._RBGP_START_SLOT is not None  # parked
            collect_episode_segments(network, episode)
            if protocol == "rbgp-norci":
                assert runner._RBGP_START_SLOT is None  # taken
            transport = network.transport
            work[protocol] = (
                network.engine.events_processed,
                transport.messages_sent,
                transport.messages_delivered,
                transport.messages_lost,
                network.stats.announcements,
                network.stats.withdrawals,
                len(network.trace.changes),
            )
            network.dispose()
    finally:
        clear_twin_start_cache()
    return work


@pytest.mark.parametrize("campaign", sorted(PINNED))
def test_a_unit_does_the_pinned_work(bench_graph, campaign):
    assert _work(bench_graph, campaign) == PINNED[campaign]
