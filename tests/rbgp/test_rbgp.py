"""Tests for the R-BGP implementation (failover paths, RCI, stale FIB)."""

import pytest

from reference.static import compute_stable_routes
from repro.analysis.transient import analyze_transient_problems
from repro.forwarding.rbgp_plane import RBGPDataPlane
from repro.rbgp.network import RBGPNetwork
from repro.rbgp.speaker import path_links
from repro.topology.generators import example_paper_topology
from repro.types import normalize_link


@pytest.fixture
def graph():
    return example_paper_topology()


def make_network(graph, dest=90, *, rci=True, seed=0):
    net = RBGPNetwork(graph, dest, seed=seed, rci=rci)
    net.start()
    return net


class TestPathHelpers:
    def test_path_links(self):
        assert path_links((1, 2, 3)) == {(1, 2), (2, 3)}

    def test_a_path_contains_a_link_in_either_order(self):
        assert normalize_link(3, 2) in path_links((1, 2, 3))
        assert normalize_link(1, 3) not in path_links((1, 2, 3))


class TestFailoverAdvertisement:
    def test_primary_convergence_matches_bgp(self, graph):
        net = make_network(graph)
        oracle = compute_stable_routes(graph, 90)
        for asn in graph.ases:
            assert net.best_path(asn) == oracle.route(asn).path

    def test_failover_advertised_to_next_hop(self, graph):
        net = make_network(graph)
        # Tier-1 10 routes to 90 via customer 30 and holds disjoint
        # alternates (via 40, or via peer 20); it advertises its most
        # disjoint one to its next hop 30.
        next_hop = net.speakers[10].best.learned_from
        entries = dict(net.speakers[next_hop].failover_state())
        assert 10 in entries
        # The advertised path must avoid the receiving next hop.
        assert next_hop not in entries[10]

    def test_failover_is_disjoint_alternate(self, graph):
        net = make_network(graph)
        speaker = net.speakers[10]
        failover = speaker.compute_failover_route()
        assert failover is not None
        assert failover.learned_from != speaker.best.learned_from

    def test_no_alternate_means_no_failover(self, graph):
        # 70's only candidate alternates all pass through its next hop
        # 90 (the destination) or itself, so it advertises nothing.
        net = make_network(graph)
        assert net.speakers[70].compute_failover_route() is None

    def test_no_failover_for_origin(self, graph):
        net = make_network(graph)
        assert net.speakers[90].compute_failover_route() is None


class TestRCI:
    def test_purge_drops_paths_through_root_cause(self, graph):
        net = make_network(graph, rci=True)
        speaker = net.speakers[30]
        assert any(
            normalize_link(70, 90) in path_links((30,) + r.path)
            for r in speaker.adj_rib_in.routes()
        )
        speaker._purge_root_cause(normalize_link(70, 90))
        assert not any(
            normalize_link(70, 90) in path_links((30,) + r.path)
            for r in speaker.adj_rib_in.routes()
        )
        assert normalize_link(70, 90) in speaker.known_bad_links

    def test_rci_converges_after_failure(self, graph):
        net = make_network(graph, rci=True)
        net.fail_link(90, 70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_links=[(90, 70)])
        for asn in graph.ases:
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_no_rci_converges_to_same_state(self, graph):
        net = make_network(graph, rci=False)
        net.fail_link(90, 70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_links=[(90, 70)])
        for asn in graph.ases:
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_rci_uses_fewer_or_equal_updates(self, graph):
        rci = make_network(graph, rci=True)
        base_rci = rci.stats.updates
        rci.fail_link(90, 70)
        rci.run_to_convergence()
        norci = make_network(graph, rci=False)
        base_norci = norci.stats.updates
        norci.fail_link(90, 70)
        norci.run_to_convergence()
        assert (rci.stats.updates - base_rci) <= (norci.stats.updates - base_norci)


class TestStaleFIB:
    def test_fib_retains_path_on_withdrawal_with_rci(self, graph):
        net = make_network(graph, rci=True)
        speaker = net.speakers[70]
        old_fib = speaker.data_plane_path
        assert old_fib is not None
        # Tear down every session: control plane loses all routes, the
        # FIB keeps the stale entry.
        for peer in list(speaker.sessions):
            speaker.on_session_down(peer)
        assert speaker.best is None
        assert speaker.data_plane_path == old_fib

    def test_fib_follows_withdrawal_without_rci(self, graph):
        net = make_network(graph, rci=False)
        speaker = net.speakers[70]
        for peer in list(speaker.sessions):
            speaker.on_session_down(peer)
        assert speaker.best is None
        assert speaker.data_plane_path is None


class TestSingleFailureProtection:
    """R-BGP's headline property: no transient problems under a single
    link failure (with RCI), evaluated end to end."""

    @pytest.mark.parametrize("link", [(90, 70), (90, 80), (70, 30), (80, 60)])
    def test_rci_no_transient_problems(self, graph, link):
        net = make_network(graph, rci=True, seed=4)
        initial = net.forwarding_state()
        net.fail_link(*link)
        net.run_to_convergence()
        plane = RBGPDataPlane(90, rci=True, graph=graph)
        report = analyze_transient_problems(
            net.trace,
            initial,
            plane,
            graph.ases,
            failed_links=frozenset({normalize_link(*link)}),
        )
        assert report.affected_count == 0, report.affected
