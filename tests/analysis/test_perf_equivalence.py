"""Equivalence of the optimized analysis paths with their references.

The memoized/anchor-shared Φ and the incremental transient analyzer
must be *observationally identical* to the brute-force implementations
they replaced (kept as ``_reference_*``).  These tests pin them to each
other on small random Internet-like topologies and real protocol runs.
"""

import random

import pytest

from repro.analysis.phi import (
    _reference_phi_distribution,
    _reference_phi_for_destination,
    phi_distribution,
    phi_for_destination,
)
from repro.analysis.transient import (
    _reference_analyze_transient_problems,
    analyze_transient_problems,
)
from repro.experiments.runner import PROTOCOLS, build_network
from repro.experiments.scenarios import single_provider_link_failure
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.types import normalize_link


def _random_topology(seed: int):
    config = InternetTopologyConfig(
        seed=seed, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=30
    )
    graph, _ = generate_internet_topology(config)
    return graph


class TestPhiEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_distribution_matches_reference(self, seed):
        graph = _random_topology(seed)
        assert phi_distribution(graph) == _reference_phi_distribution(graph)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_single_destination_matches_reference(self, seed):
        graph = _random_topology(seed)
        for dest in graph.ases:
            assert phi_for_destination(graph, dest) == _reference_phi_for_destination(
                graph, dest
            )

    def test_path_cap_matches_reference(self):
        graph = _random_topology(9)
        for dest in graph.ases[::7]:
            assert phi_for_destination(
                graph, dest, max_paths=3
            ) == _reference_phi_for_destination(graph, dest, max_paths=3)


def _reports_equal(a, b):
    assert a.eligible == b.eligible
    assert a.affected == b.affected
    assert a.permanently_unreachable == b.permanently_unreachable
    assert a.looped == b.looped
    assert a.blackholed == b.blackholed
    assert a.timeline == b.timeline
    assert a.problem_timeline == b.problem_timeline


class TestTransientEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_single_link_failure_matches_reference(self, protocol, seed):
        graph = _random_topology(seed + 20)
        episode = single_provider_link_failure(graph, random.Random(seed))
        links = [event.link for _, event in episode.steps]
        network, plane = build_network(
            protocol, graph, episode.destination, seed=seed
        )
        network.start()
        initial_state = network.forwarding_state()
        for a, b in links:
            network.fail_link(a, b)
        network.run_to_convergence()
        failed_links = frozenset(normalize_link(a, b) for a, b in links)
        kwargs = dict(failed_links=failed_links)
        fast = analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        slow = _reference_analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        _reports_equal(fast, slow)

    def test_min_duration_matches(self):
        graph = _random_topology(31)
        episode = single_provider_link_failure(graph, random.Random(8))
        links = [event.link for _, event in episode.steps]
        network, plane = build_network("bgp", graph, episode.destination, seed=8)
        network.start()
        initial_state = network.forwarding_state()
        for a, b in links:
            network.fail_link(a, b)
        network.run_to_convergence()
        kwargs = dict(
            failed_links=frozenset(normalize_link(a, b) for a, b in links),
            min_duration=5.0,
        )
        fast = analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        slow = _reference_analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        _reports_equal(fast, slow)

    def test_empty_trace_matches_reference(self):
        graph = _random_topology(40)
        network, plane = build_network("bgp", graph, graph.ases[0], seed=1)
        network.start()
        initial_state = network.forwarding_state()
        fast = analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases
        )
        slow = _reference_analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases
        )
        _reports_equal(fast, slow)


class TestBatchClassifyEquivalence:
    """classify_batch must agree with classify for every plane."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_scan_agrees(self, protocol, seed):
        graph = _random_topology(seed)
        episode = single_provider_link_failure(graph, random.Random(seed))
        network, plane = build_network(
            protocol, graph, episode.destination, seed=seed
        )
        network.start()
        state = network.forwarding_state()
        failed_links = frozenset(
            normalize_link(*event.link) for _, event in episode.steps
        )
        for links in (frozenset(), failed_links):
            scalar = plane.classify(state, graph.ases, failed_links=links)
            batch = plane.classify_batch(state, graph.ases, failed_links=links)
            for asn in graph.ases:
                assert batch.get(asn) == scalar.get(asn), (protocol, asn)


class TestUphillViewCacheEquivalence:
    def test_cache_reuses_views(self):
        import repro.analysis.phi as phi_mod

        graph = _random_topology(4)
        built = []
        original = phi_mod.UphillView

        class CountingView(original):
            def __init__(self, graph, anchor):
                built.append(anchor)
                super().__init__(graph, anchor)

        phi_mod.UphillView = CountingView
        try:
            first = phi_distribution(graph)
            builds_cold = len(built)
            assert builds_cold > 0
            again = phi_distribution(graph)
            assert len(built) == builds_cold  # warm: no rebuilds
            assert [r.phi for r in again] == [r.phi for r in first]
            assert first == _reference_phi_distribution(graph)
        finally:
            phi_mod.UphillView = original

    def test_intelligent_selection_matches_cold_path(self):
        from repro.analysis.phi import (
            conditional_phi_by_provider,
            phi_with_intelligent_selection,
        )

        graph = _random_topology(5)
        # Warm the cache, then verify per-destination results agree
        # with what a fresh graph (cold cache) computes.
        phi_distribution(graph)
        warm = [phi_with_intelligent_selection(graph, d) for d in graph.ases]
        cold_graph = _random_topology(5)
        cold = [
            phi_with_intelligent_selection(cold_graph, d)
            for d in cold_graph.ases
        ]
        assert [(r.destination, r.phi) for r in warm] == [
            (r.destination, r.phi) for r in cold
        ]
        # Mutating a caller's conditional stats must not poison the cache.
        origin = next(a for a in graph.ases if graph.is_multihomed(a))
        stats = conditional_phi_by_provider(graph, origin)
        if stats:
            stats[min(stats)] = (0, 1)
            assert conditional_phi_by_provider(graph, origin) != stats or len(stats) == 1
