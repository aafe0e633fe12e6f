"""Tests for the static Gao-Rexford route oracle."""

import pytest

from reference.paths import is_valley_free
from reference.static import RouteClass, compute_stable_routes
from repro.errors import UnknownASError
from repro.topology.generators import example_paper_topology
from repro.topology.graph import ASGraph
from fakes import chain_topology, clique_topology


class TestChain:
    def test_everyone_reaches_bottom(self):
        graph = chain_topology(4)
        state = compute_stable_routes(graph, 1)
        assert state.route(4).path == (4, 3, 2, 1)
        assert state.route(1).path == (1,)
        assert state.route(1).route_class is RouteClass.ORIGIN

    def test_downhill_routes_are_provider_class(self):
        graph = chain_topology(3)
        state = compute_stable_routes(graph, 3)  # destination at the top
        assert state.route(1).route_class is RouteClass.PROVIDER
        assert state.route(1).path == (1, 2, 3)

    def test_uphill_routes_are_customer_class(self):
        graph = chain_topology(3)
        state = compute_stable_routes(graph, 1)
        assert state.route(2).route_class is RouteClass.CUSTOMER
        assert state.route(3).route_class is RouteClass.CUSTOMER


class TestClique:
    def test_peer_routes_one_hop(self):
        graph = clique_topology(4)
        state = compute_stable_routes(graph, 2)
        for asn in (1, 3, 4):
            route = state.route(asn)
            assert route.path == (asn, 2)
            assert route.route_class is RouteClass.PEER


class TestPolicies:
    def test_prefer_customer_over_shorter_peer(self):
        # 5's customer chain to 1 is long; its peer 6 reaches 1 directly.
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(2, 3)
        graph.add_c2p(3, 5)
        graph.add_p2p(5, 6)
        graph.add_c2p(1, 6)
        state = compute_stable_routes(graph, 1)
        assert state.route(5).route_class is RouteClass.CUSTOMER
        assert state.route(5).path == (5, 3, 2, 1)

    def test_peer_routes_not_re_exported_to_peers(self):
        # 6 peers with 5 and 7; only 6 has a customer route to 1.
        # 7 must reach 1 via 6 (peer), but 5 peering only with 7 gets
        # nothing through 7 (valley-free).
        graph = ASGraph()
        graph.add_c2p(1, 6)
        graph.add_p2p(6, 7)
        graph.add_p2p(7, 5)
        state = compute_stable_routes(graph, 1)
        assert state.route(7).path == (7, 6, 1)
        assert state.route(5) is None

    def test_provider_routes_propagate_downhill(self):
        # 1 under 2; destination 9 reachable only via 2's peer 3.
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_p2p(2, 3)
        graph.add_c2p(9, 3)
        state = compute_stable_routes(graph, 9)
        assert state.route(1).path == (1, 2, 3, 9)
        assert state.route(1).route_class is RouteClass.PROVIDER


class TestExampleTopology:
    def test_all_paths_valley_free(self):
        graph = example_paper_topology()
        for dest in graph.ases:
            state = compute_stable_routes(graph, dest)
            for asn in graph.ases:
                route = state.route(asn)
                assert route is not None, (asn, dest)
                assert is_valley_free(graph, route.path), route.path

    def test_next_hop_consistency(self):
        graph = example_paper_topology()
        state = compute_stable_routes(graph, 90)
        for asn in graph.ases:
            route = state.route(asn)
            if route.next_hop is not None:
                # Following the next hop must shorten the path by one.
                next_route = state.route(route.next_hop)
                assert route.path[1:] == next_route.path

    def test_reachable_ases(self):
        graph = example_paper_topology()
        state = compute_stable_routes(graph, 90)
        assert sorted(state.routes) == list(graph.ases)


class TestFailures:
    def test_failed_link_excluded(self):
        graph = example_paper_topology()
        state = compute_stable_routes(graph, 90, failed_links=[(90, 70)])
        assert state.route(70).path == (70, 30, 10, 20, 60, 80, 90) or state.route(
            70
        ).path[0] == 70
        # 70 must not use the failed direct link.
        assert state.route(70).path[1] != 90

    def test_failed_as_excluded(self):
        graph = example_paper_topology()
        state = compute_stable_routes(graph, 90, failed_ases=[80])
        assert state.route(80) is None
        for asn in graph.ases:
            route = state.route(asn)
            if route is not None:
                assert 80 not in route.path

    def test_failed_destination_unreachable(self):
        graph = example_paper_topology()
        state = compute_stable_routes(graph, 90, failed_ases=[90])
        assert state.routes == {}

    def test_unknown_destination(self):
        graph = example_paper_topology()
        with pytest.raises(UnknownASError):
            compute_stable_routes(graph, 12345)


class TestOracleAgainstDynamicBGP:
    """The static solver must match the event-driven simulator exactly."""

    @pytest.mark.parametrize("dest_index", [0, 5, 17])
    def test_initial_convergence_matches(self, small_internet, dest_index):
        from repro.bgp.network import BGPNetwork

        graph, _ = small_internet
        dest = graph.ases[dest_index * 7 % len(graph.ases)]
        state = compute_stable_routes(graph, dest)
        network = BGPNetwork(graph, dest, seed=dest_index)
        network.start()
        for asn in graph.ases:
            expected = state.route(asn).path if state.route(asn) else None
            assert network.best_path(asn) == expected, asn

    def test_post_failure_convergence_matches(self, small_internet):
        from repro.bgp.network import BGPNetwork

        graph, _ = small_internet
        dest = next(asn for asn in graph.ases if graph.is_multihomed(asn))
        provider = graph.providers(dest)[0]
        network = BGPNetwork(graph, dest, seed=1)
        network.start()
        network.fail_link(dest, provider)
        network.run_to_convergence()
        state = compute_stable_routes(graph, dest, failed_links=[(dest, provider)])
        for asn in graph.ases:
            expected = state.route(asn).path if state.route(asn) else None
            assert network.best_path(asn) == expected, asn
