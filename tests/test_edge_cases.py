"""Edge-case and failure-injection tests across protocol stacks."""

import pytest

from repro.bgp.network import BGPNetwork, NetworkConfig
from repro.rbgp.network import RBGPNetwork
from repro.routing.static import compute_stable_routes
from repro.stamp.network import STAMPConfig, STAMPNetwork
from repro.topology.generators import chain_topology, clique_topology, example_paper_topology
from repro.topology.graph import ASGraph
from repro.types import Color


class TestDegenerateTopologies:
    def test_two_as_network(self):
        graph = ASGraph()
        graph.add_c2p(1, 2)
        net = BGPNetwork(graph, 1, NetworkConfig(seed=0))
        net.start()
        assert net.best_path(2) == (2, 1)

    def test_chain_network_converges(self):
        graph = chain_topology(6)
        net = BGPNetwork(graph, 1, NetworkConfig(seed=0))
        net.start()
        assert net.best_path(6) == (6, 5, 4, 3, 2, 1)

    def test_clique_stamp(self):
        # All tier-1s: nobody has providers, coloring never activates,
        # but both processes still converge via peering.
        graph = clique_topology(4)
        net = STAMPNetwork(graph, 2, STAMPConfig(seed=0))
        net.start()
        for asn in (1, 3, 4):
            assert net.best_path(asn, Color.RED) == (asn, 2)
            assert net.best_path(asn, Color.BLUE) == (asn, 2)

    def test_unknown_destination_rejected(self):
        graph = chain_topology(3)
        with pytest.raises(ValueError):
            BGPNetwork(graph, 999, NetworkConfig(seed=0))
        with pytest.raises(ValueError):
            STAMPNetwork(graph, 999, STAMPConfig(seed=0))


class TestCascadingFailures:
    def test_bgp_survives_sequential_failures(self):
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=1))
        net.start()
        net.fail_link(90, 70)
        net.run_to_convergence()
        net.fail_link(80, 50)
        net.run_to_convergence()
        oracle = compute_stable_routes(
            graph, 90, failed_links=[(90, 70), (80, 50)]
        )
        for asn in graph.ases:
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_total_isolation_withdraws_everywhere(self):
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=1))
        net.start()
        net.fail_link(90, 70)
        net.fail_link(90, 80)
        net.run_to_convergence()
        for asn in graph.ases:
            if asn != 90:
                assert net.best_path(asn) is None, asn

    def test_stamp_total_isolation(self):
        graph = example_paper_topology()
        net = STAMPNetwork(graph, 90, STAMPConfig(seed=1))
        net.start()
        net.fail_link(90, 70)
        net.fail_link(90, 80)
        net.run_to_convergence()
        for asn in graph.ases:
            if asn != 90:
                assert net.best_path(asn, Color.RED) is None
                assert net.best_path(asn, Color.BLUE) is None

    def test_rbgp_fail_and_recover_cycle(self):
        graph = example_paper_topology()
        net = RBGPNetwork(graph, 90, NetworkConfig(seed=1), rci=True)
        net.start()
        before = {asn: net.best_path(asn) for asn in graph.ases}
        net.fail_link(90, 70)
        net.run_to_convergence()
        net.restore_link(90, 70)
        net.run_to_convergence()
        after = {asn: net.best_path(asn) for asn in graph.ases}
        assert before == after

    def test_stamp_fail_all_then_recover(self):
        graph = example_paper_topology()
        net = STAMPNetwork(graph, 90, STAMPConfig(seed=1))
        net.start()
        net.fail_link(90, 70)
        net.fail_link(90, 80)
        net.run_to_convergence()
        net.restore_link(90, 70)
        net.restore_link(90, 80)
        net.run_to_convergence()
        for asn in graph.ases:
            assert net.best_path(asn, Color.BLUE) is not None, asn


class TestIdempotentFailureInjection:
    def test_double_fail_link_is_harmless(self):
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=1))
        net.start()
        net.fail_link(90, 70)
        net.fail_link(70, 90)  # same link, other order
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_links=[(90, 70)])
        for asn in graph.ases:
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected

    def test_double_fail_as_is_harmless(self):
        graph = example_paper_topology()
        net = BGPNetwork(graph, 90, NetworkConfig(seed=1))
        net.start()
        net.fail_as(70)
        net.fail_as(70)
        net.run_to_convergence()
        oracle = compute_stable_routes(graph, 90, failed_ases=[70])
        for asn in graph.ases:
            if asn == 70:
                continue
            expected = oracle.route(asn).path if oracle.route(asn) else None
            assert net.best_path(asn) == expected
