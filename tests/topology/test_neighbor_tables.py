"""One set of neighbor tables per graph: derived once, shared, never
written, and never part of what a graph pickles or hashes."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.canonical import graph_content_hash
from repro.experiments.figures import run_campaign
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentConfig, build_network
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.topology.shm import attach_graph, share_graph, shared_memory_available
from repro.types import RELATIONSHIP_PREFERENCE

SMALL = InternetTopologyConfig(
    seed=13, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=30
)


def _graph():
    return generate_internet_topology(SMALL)[0]


def _fresh_tables(graph, asn):
    rel_table = graph.neighbor_relationships(asn)
    pref_table = {n: RELATIONSHIP_PREFERENCE[r] for n, r in rel_table.items()}
    return pref_table, rel_table


def _tables_of(speaker):
    return speaker._pref_table, speaker._rel_table


def test_a_campaign_leaves_every_table_as_derived():
    graph = _graph()
    run_campaign(
        "fig2",
        ExperimentConfig(seed=0, n_instances=2),
        graph=graph,
        runner=ParallelRunner(workers=1),
    )
    assert set(graph._tables) == set(graph.ases)  # every AS had a speaker
    for asn, tables in graph._tables.items():
        assert tables == _fresh_tables(graph, asn)


def test_every_speaker_of_an_as_holds_the_graphs_one_pair():
    graph = _graph()
    asn = graph.ases[7]
    expected = graph.neighbor_tables(asn)
    assert graph.neighbor_tables(asn) is expected
    bgp, _ = build_network("bgp", graph, graph.ases[0])
    stamp, _ = build_network("stamp", graph, graph.ases[0])
    rbgp, _ = build_network("rbgp", graph, graph.ases[0])
    rbgp.start()
    twin = rbgp.fork()
    node = stamp.speakers[asn]
    holders = (
        bgp.speakers[asn], node.red, node.blue,
        rbgp.speakers[asn], twin.speakers[asn],
    )
    for speaker in holders:
        pref_table, rel_table = _tables_of(speaker)
        assert pref_table is expected[0]
        assert rel_table is expected[1]
    for network in (bgp, stamp, rbgp, twin):
        network.dispose()


@pytest.mark.skipif(
    not shared_memory_available(),
    reason="platform cannot create shared-memory segments",
)
def test_an_attached_graph_fills_its_own_tables():
    graph = _graph()
    asn = graph.ases[3]
    original = graph.neighbor_tables(asn)
    with share_graph(graph) as shared:
        with attach_graph(shared.name) as attached:
            copy = attached.graph
            assert copy._tables == {}
            network, _ = build_network("bgp", copy, copy.ases[0])
            pref_table, rel_table = _tables_of(network.speakers[asn])
            cached = copy.neighbor_tables(asn)
            assert pref_table is cached[0] and rel_table is cached[1]
            assert cached == original
            assert cached[0] is not original[0]
            assert cached[1] is not original[1]
            network.dispose()


def test_the_tables_enter_no_pickle_and_no_content_hash():
    graph, twin = _graph(), _graph()
    for asn in graph.ases:  # the other per-AS cache, filled on both
        graph.neighbors(asn)
        twin.neighbors(asn)
    before = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    for asn in graph.ases:
        graph.neighbor_tables(asn)
    assert pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert pickle.loads(before)._tables == {}
    assert graph_content_hash(graph) == graph_content_hash(twin)
