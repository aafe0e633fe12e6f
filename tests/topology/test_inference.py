"""Tests for Gao's relationship-inference algorithm."""

import pytest

from repro.topology.generators import (
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)
from repro.topology.inference import infer_relationships
from repro.topology.routeviews import all_paths, synthesize_routeviews_tables


class TestHandmadeCases:
    def test_simple_chain_inferred_as_c2p(self):
        # Vantage 3 (the big provider) sees paths down the chain; 1's
        # own view goes up.  Degrees: 2 has the highest.
        paths = [
            (3, 2, 1),
            (3, 2),
            (1, 2, 3),
            (1, 2),
            (4, 2, 1),
            (4, 2, 3),
        ]
        result = infer_relationships(paths)
        # 2 has degree 3 (neighbors 1, 3, 4) and tops every path, so
        # 1, 3 and 4 are inferred as its customers.
        assert (1, 2) in result.c2p_links
        assert (3, 2) in result.c2p_links

    def test_no_paths_yields_empty_graph(self):
        result = infer_relationships([])
        assert len(result.graph) == 0

    def test_single_hop_paths_ignored(self):
        result = infer_relationships([(1,), (2,)])
        assert len(result.graph) == 0


class TestEndToEndAccuracy:
    @pytest.fixture(scope="class")
    def inferred(self):
        config = InternetTopologyConfig(
            seed=21, n_tier1=4, n_tier2=12, n_tier3=30, n_stub=60
        )
        graph, _ = generate_internet_topology(config)
        tables = synthesize_routeviews_tables(graph, n_vantages=12, seed=1)
        result = infer_relationships(all_paths(tables))
        return graph, result

    def test_c2p_accuracy_high(self, inferred):
        graph, result = inferred
        accuracy = result.accuracy_against(graph)
        # Gao reports >90% on real tables where tier-1 degrees dominate;
        # in a small synthetic graph large tier-2s rival tier-1 degrees,
        # which is the algorithm's known weak spot (peer links get
        # absorbed into c2p).  The hierarchy itself is still recovered.
        assert accuracy["c2p"] >= 0.85, accuracy

    def test_overall_accuracy(self, inferred):
        graph, result = inferred
        accuracy = result.accuracy_against(graph)
        assert accuracy["overall"] >= 0.8, accuracy

    def test_inferred_links_exist_in_truth(self, inferred):
        graph, result = inferred
        for a, b in result.c2p_links | result.peer_links:
            assert graph.has_link(a, b)

    def test_example_topology_round_trip(self):
        graph = example_paper_topology()
        tables = synthesize_routeviews_tables(
            graph, vantages=[10, 20, 40, 50], seed=0
        )
        result = infer_relationships(all_paths(tables))
        accuracy = result.accuracy_against(graph)
        assert accuracy["overall"] >= 0.8, accuracy


class TestPeeringIdentification:
    def test_the_top_edge_toward_the_smaller_neighbor_is_not_peering(self):
        # 2 (degree 4) tops 1 -> 2 -> 3.  Its neighbor 1 (degree 2)
        # outranks 3 (degree 1), so 2-3 cannot be peering and stays
        # c2p; 1-2 is a top edge nothing rules out: a peer link, though
        # phase 1 counted transit on it.
        paths = [(1, 2, 3), (4, 1, 2), (5, 2, 3), (6, 2, 3)]
        result = infer_relationships(paths)
        assert result.peer_links == {(1, 2)}
        assert (3, 2) in result.c2p_links

    def test_the_example_pipeline_finds_peer_links(self):
        """The configuration of ``examples/inference_pipeline.py``: a
        rule that required no transit evidence on a peer link labelled
        none of them peer (phase 1 counts transit on every edge), at
        0.884 c2p accuracy."""
        config = InternetTopologyConfig(
            seed=33, n_tier1=5, n_tier2=20, n_tier3=50, n_stub=120
        )
        graph, _ = generate_internet_topology(config)
        tables = synthesize_routeviews_tables(graph, n_vantages=15, seed=2)
        accuracy = infer_relationships(all_paths(tables)).accuracy_against(graph)
        assert accuracy["p2p"] > 0, accuracy
        assert accuracy["c2p"] >= 0.884, accuracy
