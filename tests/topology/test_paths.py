"""Unit tests for valley-free path utilities."""

import pytest

from reference.paths import (
    downhill_node_disjoint,
    downhill_nodes,
    is_valley_free,
    node_disjoint,
    path_is_loop_free,
    split_uphill_downhill,
)
from repro.errors import TopologyError
from repro.topology.generators import example_paper_topology


@pytest.fixture
def graph():
    return example_paper_topology()


class TestLoopFree:
    def test_simple_path(self):
        assert path_is_loop_free((1, 2, 3))

    def test_repeated_as(self):
        assert not path_is_loop_free((1, 2, 1))

    def test_empty_and_single(self):
        assert path_is_loop_free(())
        assert path_is_loop_free((5,))


class TestValleyFree:
    def test_pure_uphill(self, graph):
        assert is_valley_free(graph, (90, 70, 30, 10))

    def test_pure_downhill(self, graph):
        assert is_valley_free(graph, (10, 30, 70, 90))

    def test_up_peer_down(self, graph):
        assert is_valley_free(graph, (70, 40, 50, 80))

    def test_up_then_down(self, graph):
        assert is_valley_free(graph, (90, 70, 40, 10))
        assert is_valley_free(graph, (30, 10, 40))

    def test_valley_rejected(self, graph):
        # down to a customer then back up to a provider is a valley
        assert not is_valley_free(graph, (30, 70, 40))

    def test_peer_then_up_rejected(self, graph):
        assert not is_valley_free(graph, (40, 50, 20))

    def test_down_then_peer_rejected(self, graph):
        assert not is_valley_free(graph, (10, 40, 50))

    def test_peer_then_down_is_fine(self, graph):
        assert is_valley_free(graph, (10, 20, 60, 80))

    def test_looping_path_rejected(self, graph):
        assert not is_valley_free(graph, (70, 30, 70))

    def test_trivial_paths(self, graph):
        assert is_valley_free(graph, ())
        assert is_valley_free(graph, (90,))


class TestSplit:
    def test_up_peer_down(self, graph):
        uphill, peer, downhill = split_uphill_downhill(graph, (70, 40, 50, 80))
        assert uphill == (70, 40)
        assert peer == (40, 50)
        assert downhill == (50, 80)

    def test_pure_uphill(self, graph):
        uphill, peer, downhill = split_uphill_downhill(graph, (90, 70, 30, 10))
        assert uphill == (90, 70, 30, 10)
        assert peer is None
        assert downhill == ()

    def test_pure_downhill(self, graph):
        uphill, peer, downhill = split_uphill_downhill(graph, (10, 30, 70, 90))
        assert uphill == ()
        assert peer is None
        assert downhill == (10, 30, 70, 90)

    def test_up_then_down_without_peer(self, graph):
        uphill, peer, downhill = split_uphill_downhill(graph, (30, 10, 40, 70))
        assert uphill == (30, 10)
        assert peer is None
        assert downhill == (10, 40, 70)

    def test_non_valley_free_raises(self, graph):
        with pytest.raises(TopologyError):
            split_uphill_downhill(graph, (30, 70, 40))

    def test_single_as(self, graph):
        assert split_uphill_downhill(graph, (90,)) == ((), None, ())


class TestDownhillNodes:
    def test_shared_peak_as_belongs_to_both(self, graph):
        # The peak AS (10) is on both the uphill and downhill portions.
        nodes = downhill_nodes(graph, (30, 10, 40, 70))
        assert nodes == {10, 40, 70}

    def test_pure_uphill_has_empty_downhill(self, graph):
        assert downhill_nodes(graph, (90, 70, 30, 10)) == set()


class TestDisjointness:
    def test_disjoint_paths(self, graph):
        # Two downhill chains toward 90: via 30/70 and via 60/80.
        path_a = (10, 30, 70, 90)
        path_b = (20, 60, 80, 90)
        assert downhill_node_disjoint(graph, path_a, path_b)

    def test_shared_transit_not_disjoint(self, graph):
        path_a = (10, 30, 70, 90)
        path_b = (10, 40, 70, 90)  # shares 70 (and 10)
        assert not downhill_node_disjoint(graph, path_a, path_b)

    def test_shared_endpoints_allowed(self, graph):
        # Same source and destination, disjoint interiors.
        path_a = (90, 70, 30, 10, 40, 70)  # invalid loop, use realistic:
        path_a = (70, 30, 10)
        path_b = (70, 40, 10)
        # Both are pure uphill: empty downhill portions are disjoint.
        assert downhill_node_disjoint(graph, path_a, path_b)

    def test_full_disjointness_helper(self):
        assert node_disjoint((1, 2, 5), (1, 3, 5))
        assert not node_disjoint((1, 2, 5), (4, 2, 6))
        assert node_disjoint((), (1, 2))
