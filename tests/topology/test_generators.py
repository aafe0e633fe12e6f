"""Tests for the synthetic topology generators."""

import pytest

from repro.errors import ConfigurationError
from repro.topology.generators import (
    PROVIDER_COUNT_WEIGHTS,
    STUB_PROVIDER_COUNT_WEIGHTS,
    TIER2_PEERING_PROB,
    TIER3_PEERING_PROB,
    TIER3_TIER1_UPLINK_PROB,
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)
from repro.topology.validation import validate_graph
from fakes import chain_topology, clique_topology


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = InternetTopologyConfig()
        assert config.total_ases == 8 + 48 + 120 + 440

    def test_too_few_tier1(self):
        with pytest.raises(ConfigurationError):
            InternetTopologyConfig(n_tier1=1)

    def test_negative_tier_size(self):
        with pytest.raises(ConfigurationError):
            InternetTopologyConfig(n_stub=-1)

    def test_shape_constants_are_valid(self):
        for weights in (PROVIDER_COUNT_WEIGHTS, STUB_PROVIDER_COUNT_WEIGHTS):
            assert all(w >= 0 for w in weights) and sum(weights) > 0
        for prob in (TIER3_TIER1_UPLINK_PROB, TIER2_PEERING_PROB, TIER3_PEERING_PROB):
            assert 0.0 <= prob <= 1.0


class TestGeneratedStructure:
    @pytest.fixture(scope="class")
    def generated(self):
        config = InternetTopologyConfig(
            seed=5, n_tier1=4, n_tier2=10, n_tier3=20, n_stub=40
        )
        return generate_internet_topology(config)

    def test_total_size(self, generated):
        graph, tiers = generated
        assert len(graph) == 74
        assert len(tiers.tier1) == 4
        assert len(tiers.stub) == 40

    def test_tier1_clique_is_peered_and_provider_free(self, generated):
        graph, tiers = generated
        for a in tiers.tier1:
            assert graph.is_tier1(a)
            for b in tiers.tier1:
                if a != b:
                    assert graph.has_link(a, b)

    def test_hierarchy_is_acyclic(self, generated):
        graph, _ = generated
        graph.check_acyclic_hierarchy()

    def test_every_as_reaches_a_tier1_uphill(self, generated):
        graph, _ = generated
        for asn in graph.ases:
            assert graph.uphill_reachable_tier1s(asn), asn

    def test_validation_report_is_clean(self, generated):
        graph, _ = generated
        report = validate_graph(graph)
        assert report.ok, report.summary()

    def test_the_tiers_partition_the_ases(self, generated):
        graph, tiers = generated
        members = tiers.tier1 + tiers.tier2 + tiers.tier3 + tiers.stub
        assert sorted(members) == sorted(graph.ases)

    def test_provider_counts_stay_within_the_weights(self, generated):
        graph, tiers = generated
        top = len(PROVIDER_COUNT_WEIGHTS)
        for asn in tiers.tier2:
            assert 1 <= len(graph.providers(asn)) <= top, asn
        for asn in tiers.tier3:  # plus the occasional direct tier-1 uplink
            assert 1 <= len(graph.providers(asn)) <= top + 1, asn
        for asn in tiers.stub:
            assert 1 <= len(graph.providers(asn)) <= len(STUB_PROVIDER_COUNT_WEIGHTS)
        assert any(graph.is_multihomed(asn) for asn in tiers.stub)

    def test_stubs_have_no_customers(self, generated):
        graph, tiers = generated
        for asn in tiers.stub:
            assert not graph.customers(asn)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        config = InternetTopologyConfig(
            seed=9, n_tier1=3, n_tier2=6, n_tier3=10, n_stub=20
        )
        g1, _ = generate_internet_topology(config)
        g2, _ = generate_internet_topology(config)
        assert g1.links() == g2.links()

    def test_different_seed_different_graph(self):
        base = dict(n_tier1=3, n_tier2=6, n_tier3=10, n_stub=20)
        g1, _ = generate_internet_topology(InternetTopologyConfig(seed=1, **base))
        g2, _ = generate_internet_topology(InternetTopologyConfig(seed=2, **base))
        assert g1.links() != g2.links()


class TestSmallTopologies:
    def test_chain(self):
        graph = chain_topology(4)
        assert graph.providers(1) == (2,)
        assert graph.is_tier1(4)
        assert len(graph) == 4

    def test_chain_length_one(self):
        graph = chain_topology(1)
        assert len(graph) == 1
        assert graph.is_tier1(1)

    def test_chain_invalid(self):
        with pytest.raises(ConfigurationError):
            chain_topology(0)

    def test_clique(self):
        graph = clique_topology(3)
        assert graph.peers(1) == (2, 3)
        assert all(graph.is_tier1(a) for a in graph.ases)

    def test_clique_invalid(self):
        with pytest.raises(ConfigurationError):
            clique_topology(0)

    def test_example_topology_shape(self):
        graph = example_paper_topology()
        assert len(graph) == 9
        assert graph.tier1s() == (10, 20)
        assert graph.is_multihomed(90)
        assert graph.providers(90) == (70, 80)
        report = validate_graph(graph)
        assert report.ok
