"""A started BGP or R-BGP network drains to the state the graph alone
determines (``reference.start``): every Loc-RIB, Adj-RIB-In with its
stored keys, Adj-RIB-Out, failover choice, failover RIB and RCI set,
on the 62-AS bench graph and on generated 30–80-AS graphs, whatever
the seed."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.start import assert_start_matches
from repro.experiments.runner import build_network
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)

PROTOCOLS = ("bgp", "rbgp-norci", "rbgp")
BENCH = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)


@pytest.fixture(scope="module")
def bench_graph():
    graph, _ = generate_internet_topology(BENCH)
    return graph


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("pick", (0, 7, 31, 61))
def test_the_bench_graph_starts_where_the_graph_says(bench_graph, protocol, pick):
    destination = bench_graph.ases[pick]
    network, _ = build_network(protocol, bench_graph, destination, seed=pick)
    network.start()
    assert_start_matches(network, rbgp=protocol != "bgp")


@given(
    config=st.builds(
        InternetTopologyConfig,
        seed=st.integers(0, 10_000),
        n_tier1=st.integers(2, 4),
        n_tier2=st.integers(5, 12),
        n_tier3=st.integers(8, 24),
        n_stub=st.integers(15, 40),
    ),
    pick=st.integers(0, 10_000),
    seed=st.integers(0, 2**32 - 1),
    protocol=st.sampled_from(PROTOCOLS),
)
@settings(max_examples=40, deadline=None)
def test_a_generated_graph_starts_where_the_graph_says(config, pick, seed, protocol):
    graph, _ = generate_internet_topology(config)
    assert 30 <= len(graph) <= 80
    destination = graph.ases[pick % len(graph)]
    network, _ = build_network(protocol, graph, destination, seed=seed)
    network.start()
    assert_start_matches(network, rbgp=protocol != "bgp")
