"""STAMP invariants on generated Internet-like topologies.

These check the paper's structural claims at graph scale rather than on
the hand-built example: blue-path existence (the Lock chain guarantee),
valley-freeness of every selected route, and Theorem 4.1's downhill
disjointness — with the measured allowance for the merge-node wrinkle
documented in docs/architecture.md, "Where this reproduction departs
from the paper" (an AS holding both a locked blue and a
red customer route forwards both trees, so a small fraction of AS pairs
can share a downhill merge node).
"""

import pytest

from reference.paths import downhill_node_disjoint, is_valley_free
from repro.stamp.network import STAMPNetwork
from repro.types import Color


@pytest.fixture(scope="module")
def converged(small_internet):
    graph, tiers = small_internet
    destination = next(
        asn for asn in tiers.stub if graph.is_multihomed(asn)
    )
    net = STAMPNetwork(graph, destination, seed=5)
    net.start()
    return graph, net, destination


class TestBluePathExistence:
    def test_blue_everywhere(self, converged):
        graph, net, _ = converged
        missing = [
            asn for asn in graph.ases if net.best_path(asn, Color.BLUE) is None
        ]
        assert not missing, f"ASes without blue paths: {missing}"

    def test_red_reaches_most_ases(self, converged):
        graph, net, _ = converged
        covered = sum(
            1 for asn in graph.ases if net.best_path(asn, Color.RED) is not None
        )
        # Paper 4.2: a red path exists everywhere iff one reaches a
        # tier-1; on well-connected graphs that is the common case.
        assert covered / len(graph) > 0.9

    def test_lock_chain_reaches_a_tier1(self, converged):
        graph, net, destination = converged
        # Walk the locked chain upward from the destination.
        current = destination
        seen = set()
        while not graph.is_tier1(current):
            assert current not in seen, "lock chain looped"
            seen.add(current)
            node = net.speakers[current]
            target = node.locked_blue_provider
            if target is None:
                providers = [
                    p for p in graph.providers(current) if p in node.blue.sessions
                ]
                assert len(providers) == 1, (current, providers)
                target = providers[0]
            current = target


class TestPathQuality:
    def test_all_paths_valley_free(self, converged):
        graph, net, _ = converged
        for asn in graph.ases:
            for color in Color:
                path = net.best_path(asn, color)
                if path is not None:
                    assert is_valley_free(graph, path), (asn, color, path)

    def test_theorem_41_holds_for_almost_all_ases(self, converged):
        graph, net, destination = converged
        violations = []
        total = 0
        for asn in graph.ases:
            if asn == destination:
                continue
            red = net.best_path(asn, Color.RED)
            blue = net.best_path(asn, Color.BLUE)
            if red is None or blue is None:
                continue
            total += 1
            if not downhill_node_disjoint(graph, red, blue):
                violations.append(asn)
        # Merge-node wrinkle: tolerate a small violation fraction, but
        # the theorem must hold for the vast majority.
        assert total > 0
        assert len(violations) / total < 0.1, violations


class TestStrictSelectiveAnnouncement:
    """Section 4.1 with no optional unlocked blue announcements."""

    @staticmethod
    def _multihomed(graph, net):
        for asn in graph.ases:
            node = net.speakers[asn]
            live = [p for p in graph.providers(asn) if p in node.red.sessions]
            if len(live) > 1:
                yield asn, node, live

    def test_blue_goes_up_only_to_the_locked_provider(self, converged):
        graph, net, _ = converged
        checked = 0
        for asn, node, live in self._multihomed(graph, net):
            blue_to = [p for p in live if node.blue.is_advertising(p)]
            assert blue_to in ([], [node.locked_blue_provider]), (asn, blue_to)
            checked += len(blue_to)
        assert checked > 0

    def test_a_provider_hears_one_color(self, converged):
        graph, net, _ = converged
        red_only = 0
        for asn, node, live in self._multihomed(graph, net):
            for provider in live:
                both = node.red.is_advertising(provider) and node.blue.is_advertising(
                    provider
                )
                assert not both, (asn, provider)
                red_only += node.red.is_advertising(provider)
        assert red_only > 0
