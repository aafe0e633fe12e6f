"""Tests for the disjoint-path probability Φ (Figure 1 machinery)."""

import pytest

from repro.analysis.phi import (
    best_blue_provider,
    conditional_phi_by_provider,
    phi_distribution,
    phi_for_destination,
    phi_with_intelligent_selection,
    uphill_paths_to_tier1,
)
from repro.errors import ConfigurationError
from repro.topology.generators import example_paper_topology
from repro.topology.graph import ASGraph
from fakes import chain_topology


@pytest.fixture
def diamond():
    """Perfectly disjoint diamond: Φ must be 1."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(1, 3)
    graph.add_c2p(2, 4)
    graph.add_c2p(3, 5)
    graph.add_p2p(4, 5)
    return graph


@pytest.fixture
def pinched():
    """Both chains merge at 6 before the tier-1s: no disjoint pair."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(1, 3)
    graph.add_c2p(2, 6)
    graph.add_c2p(3, 6)
    graph.add_c2p(6, 7)
    graph.add_c2p(6, 8)
    graph.add_p2p(7, 8)
    return graph


class TestUphillPaths:
    def test_diamond_has_two_paths(self, diamond):
        paths, capped = uphill_paths_to_tier1(diamond, 1)
        assert not capped
        assert sorted(paths) == [(1, 2, 4), (1, 3, 5)]

    def test_cap_is_honored(self, diamond):
        paths, capped = uphill_paths_to_tier1(diamond, 1, max_paths=1)
        assert capped
        assert len(paths) == 1

    def test_invalid_cap(self, diamond):
        with pytest.raises(ConfigurationError):
            uphill_paths_to_tier1(diamond, 1, max_paths=0)

    def test_tier1_start_is_single_trivial_path(self, diamond):
        paths, _ = uphill_paths_to_tier1(diamond, 4)
        assert paths == [(4,)]


class TestPhi:
    def test_diamond_phi_is_one(self, diamond):
        result = phi_for_destination(diamond, 1)
        assert result.phi == 1.0
        assert result.n_paths == 2
        assert result.n_good == 2
        assert result.anchor == 1

    def test_pinched_phi_is_zero(self, pinched):
        # Every chain passes through 6, so no locked choice leaves a
        # disjoint alternative.
        result = phi_for_destination(pinched, 1)
        assert result.phi == 0.0
        assert result.n_paths == 4

    def test_partial_phi(self):
        # 1 has chains via 2 (to tier-1 4) and via 3 (to 4's peer 5),
        # but also a chain via 2 that merges into 3's side.
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 3)
        graph.add_c2p(2, 4)
        graph.add_c2p(2, 3)  # merge path: 1-2-3-...
        graph.add_c2p(3, 5)
        graph.add_p2p(4, 5)
        result = phi_for_destination(graph, 1)
        assert 0.0 < result.phi < 1.0

    def test_single_homed_inherits_anchor(self, diamond):
        diamond.add_c2p(10, 1)  # 10 single-homed under the diamond
        result = phi_for_destination(diamond, 10)
        assert result.anchor == 1
        assert result.phi == 1.0

    def test_pure_chain_phi_zero(self):
        graph = chain_topology(4)
        result = phi_for_destination(graph, 1)
        assert result.phi == 0.0
        assert result.anchor is None

    def test_tier1_destination_phi_one(self, diamond):
        result = phi_for_destination(diamond, 4)
        assert result.phi == 1.0

    def test_distribution_covers_all_ases(self, diamond):
        results = phi_distribution(diamond)
        assert len(results) == len(diamond)
        assert all(0.0 <= r.phi <= 1.0 for r in results)

    def test_example_topology_phi(self):
        graph = example_paper_topology()
        result = phi_for_destination(graph, 90)
        # 90's two chains (70-side, 80-side) are fully disjoint.
        assert result.phi == 1.0


class TestIntelligentSelection:
    def test_conditional_stats_sum_to_total(self, diamond):
        stats = conditional_phi_by_provider(diamond, 1)
        total = sum(t for _, t in stats.values())
        assert total == phi_for_destination(diamond, 1).n_paths

    def test_intelligent_at_least_as_good_as_random(self):
        graph = ASGraph()
        # Provider 2 leads to a shared bottleneck, provider 3 is clean:
        # intelligent selection should pick 3.
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 3)
        graph.add_c2p(2, 6)
        graph.add_c2p(6, 7)
        graph.add_c2p(3, 8)
        graph.add_p2p(7, 8)
        random_phi = phi_for_destination(graph, 1).phi
        smart_phi = phi_with_intelligent_selection(graph, 1).phi
        assert smart_phi >= random_phi

    def test_best_blue_provider_prefers_good_side(self, pinched):
        # All chains are bad, so any provider ties; just check it picks
        # one of the real providers.
        best = best_blue_provider(pinched, 1)
        assert best in (2, 3)

    def test_best_blue_provider_picks_the_clean_side(self):
        # Locked through 3, blue climbs via 6 and red keeps 2's clean
        # 8; locked through 2, blue may climb via 6 and leave red none.
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 3)
        graph.add_c2p(3, 6)
        graph.add_c2p(2, 6)
        graph.add_c2p(2, 8)
        graph.add_p2p(6, 8)
        assert conditional_phi_by_provider(graph, 1) == {2: (1, 2), 3: (1, 1)}
        assert best_blue_provider(graph, 1) == 3

    def test_best_blue_provider_breaks_a_tie_to_the_lowest_asn(self):
        graph = ASGraph()
        graph.add_c2p(1, 3)
        graph.add_c2p(1, 2)
        graph.add_c2p(2, 6)
        graph.add_c2p(6, 7)
        graph.add_c2p(3, 8)
        graph.add_p2p(7, 8)
        stats = conditional_phi_by_provider(graph, 1)
        assert stats[2][0] / stats[2][1] == stats[3][0] / stats[3][1]
        assert best_blue_provider(graph, 1) == 2

    def test_best_blue_provider_none_without_providers(self, diamond):
        assert best_blue_provider(diamond, 4) is None
