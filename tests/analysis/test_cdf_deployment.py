"""Tests for CDF helpers and partial-deployment analysis."""

import pytest

from repro.analysis.cdf import (
    empirical_cdf,
    fraction_at_most,
    fraction_greater,
    mean,
)
from repro.analysis.deployment import (
    full_deployment_fraction,
    partial_deployment_fraction,
)
from repro.topology.generators import example_paper_topology
from repro.topology.graph import ASGraph
from fakes import chain_topology


class TestCDF:
    def test_empirical_cdf_shape(self):
        cdf = empirical_cdf([0.3, 0.1, 0.2])
        assert cdf == [(0.1, pytest.approx(1 / 3)), (0.2, pytest.approx(2 / 3)), (0.3, 1.0)]

    def test_cdf_is_monotone(self):
        cdf = empirical_cdf([5, 1, 4, 1, 3])
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        values = [v for v, _ in cdf]
        assert values == sorted(values)

    def test_empty(self):
        assert empirical_cdf([]) == []
        assert mean([]) == 0.0
        assert fraction_at_most([], 1) == 0.0
        assert fraction_greater([], 1) == 0.0

    def test_fractions(self):
        data = [0.5, 0.8, 1.0]
        assert fraction_at_most(data, 0.7) == pytest.approx(1 / 3)
        assert fraction_greater(data, 0.7) == pytest.approx(2 / 3)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0


class TestPartialDeployment:
    def test_disjoint_example_reaches_high_fraction(self):
        graph = example_paper_topology()
        partial = partial_deployment_fraction(graph, trials=64, seed=1)
        full = full_deployment_fraction(graph)
        assert 0.0 < partial < full <= 1.0

    def test_chain_has_no_disjoint_paths(self):
        graph = chain_topology(4)
        # Non-tier-1 destinations have no disjoint pairs at all.
        assert full_deployment_fraction(graph, destinations=[1, 2, 3]) == 0.0

    def test_tier1_destination_counts_as_success(self):
        graph = chain_topology(3)
        assert full_deployment_fraction(graph, destinations=[3]) == 1.0
        assert partial_deployment_fraction(graph, destinations=[3], trials=4) == 1.0

    def test_coloring_probability_half_for_single_pair(self):
        # Exactly two disjoint chains: different colors with prob 1/2.
        graph = ASGraph()
        graph.add_c2p(1, 2)
        graph.add_c2p(1, 3)
        graph.add_c2p(2, 4)
        graph.add_c2p(3, 5)
        graph.add_p2p(4, 5)
        fraction = partial_deployment_fraction(
            graph, destinations=[1], trials=4000, seed=3
        )
        assert fraction == pytest.approx(0.5, abs=0.05)

    def test_deterministic_for_seed(self):
        graph = example_paper_topology()
        a = partial_deployment_fraction(graph, trials=16, seed=9)
        b = partial_deployment_fraction(graph, trials=16, seed=9)
        assert a == b
