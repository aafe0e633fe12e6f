"""Unit tests for Gao-Rexford policies and the decision process."""

import pytest

from reference.policy import (
    best_route,
    export_allowed,
    import_accept,
    relationship_pref,
    route_sort_key,
)
from repro.bgp.ribs import Route
from repro.topology.graph import ASGraph


@pytest.fixture
def graph():
    """AS 5 with customer 1, peer 2, provider 3 (and far node 9)."""
    g = ASGraph()
    g.add_c2p(1, 5)
    g.add_p2p(5, 2)
    g.add_c2p(5, 3)
    g.add_as(9)
    return g


def customer_route(length=1):
    path = tuple([1] + [90 + i for i in range(length - 1)])
    return Route(path=path, learned_from=1)


def peer_route(length=1):
    path = tuple([2] + [80 + i for i in range(length - 1)])
    return Route(path=path, learned_from=2)


def provider_route(length=1):
    path = tuple([3] + [70 + i for i in range(length - 1)])
    return Route(path=path, learned_from=3)


class TestImport:
    def test_rejects_own_asn_in_path(self):
        assert not import_accept(5, (2, 5, 9))

    def test_accepts_clean_path(self):
        assert import_accept(5, (2, 9))


class TestLocalPref:
    def test_prefer_customer_order(self, graph):
        c = relationship_pref(graph, 5, customer_route())
        p = relationship_pref(graph, 5, peer_route())
        pr = relationship_pref(graph, 5, provider_route())
        assert c > p > pr

    def test_origin_beats_everything(self, graph):
        origin = Route(path=(), learned_from=None)
        assert relationship_pref(graph, 5, origin) > relationship_pref(
            graph, 5, customer_route()
        )


class TestExport:
    def test_customer_route_exported_everywhere(self, graph):
        route = customer_route()
        assert export_allowed(graph, 5, route, 2)
        assert export_allowed(graph, 5, route, 3)

    def test_peer_route_only_to_customers(self, graph):
        route = peer_route()
        assert export_allowed(graph, 5, route, 1)
        assert not export_allowed(graph, 5, route, 3)

    def test_provider_route_only_to_customers(self, graph):
        route = provider_route()
        assert export_allowed(graph, 5, route, 1)
        assert not export_allowed(graph, 5, route, 2)

    def test_never_reflected_to_learning_neighbor(self, graph):
        route = customer_route()
        assert not export_allowed(graph, 5, route, 1)

    def test_origin_exported_everywhere(self, graph):
        origin = Route(path=(), learned_from=None)
        for neighbor in (1, 2, 3):
            assert export_allowed(graph, 5, origin, neighbor)


class TestDecision:
    def test_customer_beats_shorter_peer(self, graph):
        best = best_route(graph, 5, [customer_route(length=4), peer_route(length=1)])
        assert best.learned_from == 1

    def test_shorter_path_wins_within_class(self, graph):
        g = graph
        g.add_c2p(4, 5)  # second customer
        short = Route(path=(4, 9), learned_from=4)
        long = Route(path=(1, 8, 9), learned_from=1)
        assert best_route(g, 5, [long, short]).learned_from == 4

    def test_lowest_neighbor_breaks_ties(self, graph):
        g = graph
        g.add_c2p(4, 5)
        a = Route(path=(4, 9), learned_from=4)
        b = Route(path=(1, 9), learned_from=1)
        assert best_route(g, 5, [a, b]).learned_from == 1

    def test_empty_candidates(self, graph):
        assert best_route(graph, 5, []) is None

    def test_prefer_locked_reorders_customer_routes(self, graph):
        g = graph
        g.add_c2p(4, 5)
        locked_long = Route(path=(4, 8, 9), learned_from=4, lock=True)
        plain_short = Route(path=(1, 9), learned_from=1)
        assert best_route(g, 5, [locked_long, plain_short]).lock is False
        assert (
            best_route(g, 5, [locked_long, plain_short], prefer_locked=True).lock
            is True
        )

    def test_prefer_locked_never_overrides_relationship(self, graph):
        locked_peer = Route(path=(2, 9), learned_from=2, lock=True)
        plain_customer = customer_route()
        best = best_route(graph, 5, [locked_peer, plain_customer], prefer_locked=True)
        assert best.learned_from == 1

    def test_sort_key_is_total(self, graph):
        routes = [customer_route(2), peer_route(1), provider_route(3)]
        keys = [route_sort_key(graph, 5, r) for r in routes]
        assert len(set(keys)) == 3
