"""Tests for the paper's single-instant builders (one-phase episodes)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    EventKind,
    link_recovery,
    provider_node_failure,
    single_provider_link_failure,
    two_link_failures_distinct_as,
    two_link_failures_same_as,
)
from repro.topology.generators import example_paper_topology
from fakes import chain_topology


@pytest.fixture
def graph():
    return example_paper_topology()


def failed_links(episode):
    """The links an episode's ``fail_link`` steps name, in step order."""
    return [
        event.link
        for _, event in episode.steps
        if event.kind is EventKind.LINK_FAIL
    ]


class TestOnePhaseShape:
    @pytest.mark.parametrize(
        "builder",
        [
            single_provider_link_failure,
            two_link_failures_distinct_as,
            two_link_failures_same_as,
            provider_node_failure,
            link_recovery,
        ],
    )
    def test_every_event_lands_at_offset_zero(self, graph, rng, builder):
        episode = builder(graph, rng)
        assert episode.steps
        assert {offset for offset, _ in episode.steps} == {0.0}
        assert len(episode.instants()) == 1
        assert episode.description


class TestSingleLink:
    def test_fails_one_provider_link_of_a_multihomed_dest(self, graph, rng):
        episode = single_provider_link_failure(graph, rng)
        assert graph.is_multihomed(episode.destination)
        ((_, event),) = episode.steps
        assert event.kind is EventKind.LINK_FAIL
        a, b = event.link
        assert a == episode.destination
        assert b in graph.providers(a)
        assert episode.pre_failed_links == ()

    def test_deterministic_per_rng(self, graph):
        a = single_provider_link_failure(graph, random.Random("x"))
        b = single_provider_link_failure(graph, random.Random("x"))
        assert a == b

    def test_raises_without_multihomed_ases(self):
        graph = chain_topology(3)
        with pytest.raises(ConfigurationError):
            single_provider_link_failure(graph, random.Random(0))


class TestTwoLinksDistinct:
    def test_second_link_is_multi_hop_away(self, graph, rng):
        for _ in range(20):
            episode = two_link_failures_distinct_as(graph, rng)
            links = failed_links(episode)
            assert len(links) == len(episode.steps)
            if len(links) < 2:
                continue
            first, second = links
            nearby = {episode.destination, *graph.providers(episode.destination)}
            assert second[0] not in nearby
            assert second[1] not in nearby

    def test_second_link_is_in_uphill_cone(self, graph, rng):
        from repro.experiments.scenarios import _uphill_cone

        for _ in range(20):
            episode = two_link_failures_distinct_as(graph, rng)
            links = failed_links(episode)
            if len(links) < 2:
                continue
            cone = _uphill_cone(graph, episode.destination)
            assert links[1][0] in cone


class TestTwoLinksSameAS:
    def test_both_links_touch_the_same_provider(self, graph, rng):
        for _ in range(10):
            episode = two_link_failures_same_as(graph, rng)
            links = failed_links(episode)
            assert len(links) == len(episode.steps)
            if len(links) < 2:
                continue
            first, second = links
            shared = set(first) & set(second)
            assert shared, episode
            provider = shared.pop()
            assert provider in graph.providers(episode.destination)


class TestNodeFailure:
    def test_fails_a_direct_provider(self, graph, rng):
        episode = provider_node_failure(graph, rng)
        ((_, event),) = episode.steps
        assert event.kind is EventKind.AS_FAIL
        assert event.asn in graph.providers(episode.destination)


class TestRecovery:
    def test_recovery_lists_restored_link(self, graph, rng):
        episode = link_recovery(graph, rng)
        ((_, event),) = episode.steps
        assert event.kind is EventKind.LINK_RESTORE
        assert episode.pre_failed_links == (event.link,)
        a, b = event.link
        assert a == episode.destination
        assert b in graph.providers(a)
