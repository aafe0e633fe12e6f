"""Unit tests for the annotated AS graph."""

import pytest

from repro.errors import (
    CyclicHierarchyError,
    TopologyError,
    UnknownASError,
    UnknownLinkError,
)
from repro.topology.graph import ASGraph
from repro.types import Relationship


@pytest.fixture
def diamond():
    """1 multi-homed under 2 and 3; both under tier-1 4."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(1, 3)
    graph.add_c2p(2, 4)
    graph.add_c2p(3, 4)
    return graph


class TestConstruction:
    def test_add_as_is_idempotent(self):
        graph = ASGraph()
        graph.add_as(7)
        graph.add_as(7)
        assert len(graph) == 1

    def test_add_c2p_creates_both_views(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        assert graph.relationship(1, 2) is Relationship.PROVIDER
        assert graph.relationship(2, 1) is Relationship.CUSTOMER

    def test_add_p2p_is_symmetric(self):
        graph = ASGraph()
        graph.add_p2p(1, 2)
        assert graph.relationship(1, 2) is Relationship.PEER
        assert graph.relationship(2, 1) is Relationship.PEER

    def test_self_link_rejected(self):
        graph = ASGraph()
        with pytest.raises(TopologyError):
            graph.add_c2p(1, 1)

    def test_conflicting_relationship_rejected(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        with pytest.raises(TopologyError):
            graph.add_p2p(1, 2)

    def test_re_adding_same_relationship_is_ok(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 2)
        assert graph.c2p_links() == [(1, 2)]


class TestQueries:
    def test_unknown_as_raises(self, diamond):
        with pytest.raises(UnknownASError):
            diamond.providers(99)

    def test_unknown_link_raises(self, diamond):
        with pytest.raises(UnknownLinkError):
            diamond.relationship(1, 4)

    def test_providers_customers_peers(self, diamond):
        diamond.add_p2p(2, 3)
        assert diamond.providers(1) == (2, 3)
        assert diamond.customers(4) == (2, 3)
        assert diamond.peers(2) == (3,)

    def test_degree(self, diamond):
        assert diamond.degree(1) == 2
        assert diamond.degree(4) == 2

    def test_multihomed_and_stub(self, diamond):
        assert diamond.is_multihomed(1)
        assert not diamond.is_multihomed(2)
        assert diamond.is_stub(1)
        assert not diamond.is_stub(2)

    def test_tier1_detection(self, diamond):
        assert diamond.is_tier1(4)
        assert not diamond.is_tier1(2)
        assert diamond.tier1s() == (4,)

    def test_links_report_each_link_once(self, diamond):
        diamond.add_p2p(2, 3)
        links = diamond.links()
        assert len(links) == 5
        assert (2, 3, Relationship.PEER) in links
        assert (1, 2, Relationship.PROVIDER) in links

    def test_c2p_links_customer_first(self, diamond):
        assert set(diamond.c2p_links()) == {(1, 2), (1, 3), (2, 4), (3, 4)}


class TestHierarchy:
    def test_acyclic_check_passes(self, diamond):
        diamond.check_acyclic_hierarchy()

    def test_cycle_detected(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(2, 3)
        graph.add_c2p(3, 1)
        with pytest.raises(CyclicHierarchyError):
            graph.check_acyclic_hierarchy()

    def test_topological_order_customers_first(self, diamond):
        order = diamond.topological_order()
        assert order.index(1) < order.index(2)
        assert order.index(2) < order.index(4)
        assert order.index(3) < order.index(4)

    def test_uphill_reachable_tier1s(self, diamond):
        assert diamond.uphill_reachable_tier1s(1) == {4}
        assert diamond.uphill_reachable_tier1s(4) == {4}

    def test_first_multihomed_ancestor_of_multihomed_is_self(self, diamond):
        assert diamond.first_multihomed_ancestor(1) == 1

    def test_first_multihomed_ancestor_climbs_chain(self):
        graph = ASGraph()
        graph.add_c2p(10, 1)  # 10 single-homed below the diamond bottom
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 3)
        graph.add_c2p(2, 4)
        graph.add_c2p(3, 4)
        assert graph.first_multihomed_ancestor(10) == 1

    def test_first_multihomed_ancestor_none_on_pure_chain(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(2, 3)
        assert graph.first_multihomed_ancestor(1) is None
