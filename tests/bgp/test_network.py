"""Integration tests for full BGP networks."""

import pytest

from repro.analysis.transient import analyze_transient_problems
from repro.bgp.network import BGPNetwork, NetworkConfig
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.routing.static import compute_stable_routes
from repro.topology.generators import example_paper_topology
from repro.topology.paths import is_valley_free


@pytest.fixture
def network():
    graph = example_paper_topology()
    net = BGPNetwork(graph, 90, NetworkConfig(seed=2))
    net.start()
    return graph, net


class TestConvergence:
    def test_all_ases_converge(self, network):
        graph, net = network
        for asn in graph.ases:
            assert net.best_path(asn) is not None

    def test_paths_are_valley_free_and_loop_free(self, network):
        graph, net = network
        for asn in graph.ases:
            path = net.best_path(asn)
            assert is_valley_free(graph, path), path

    def test_trace_cleared_after_start(self, network):
        _, net = network
        assert net.trace.changes == []

    def test_deterministic_under_seed(self):
        graph = example_paper_topology()
        a = BGPNetwork(graph, 90, NetworkConfig(seed=5))
        a.start()
        b = BGPNetwork(graph, 90, NetworkConfig(seed=5))
        b.start()
        assert {x: a.best_path(x) for x in graph.ases} == {
            x: b.best_path(x) for x in graph.ases
        }
        assert a.engine.now == b.engine.now


class TestFailureReaction:
    def test_reconvergence_matches_oracle(self, network):
        graph, net = network
        net.fail_link(90, 70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_links=[(90, 70)])
        for asn in graph.ases:
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_node_failure_reconvergence(self, network):
        graph, net = network
        net.fail_as(70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_ases=[70])
        for asn in graph.ases:
            if asn == 70:
                continue
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_restore_link_heals(self, network):
        graph, net = network
        net.fail_link(90, 70)
        net.run_to_convergence()
        net.restore_link(90, 70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90)
        for asn in graph.ases:
            assert net.best_path(asn) == oracle.route(asn).path

    def test_stats_count_updates(self, network):
        _, net = network
        before = net.stats.updates
        net.fail_link(90, 70)
        net.run_to_convergence()
        assert net.stats.updates > before


class TestLemma31:
    """Route addition / change events cause no transient problems."""

    def test_link_recovery_causes_no_problems(self):
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=4))
        net.transport.fail_link(90, 70)  # start degraded
        net.start()
        initial = net.forwarding_state()
        net.restore_link(90, 70)
        net.run_to_convergence()
        report = analyze_transient_problems(
            net.trace, initial, BGPDataPlane(90), graph.ases
        )
        assert report.affected_count == 0

    def test_new_as_route_addition_is_clean(self):
        # A brand-new customer link appearing is a route-addition event.
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=4))
        net.transport.fail_link(90, 80)
        net.start()
        initial = net.forwarding_state()
        net.restore_link(90, 80)
        net.run_to_convergence()
        report = analyze_transient_problems(
            net.trace, initial, BGPDataPlane(90), graph.ases
        )
        assert report.affected_count == 0
