"""End-to-end tests of the experiment runner and figure generators.

These use a deliberately tiny topology so each test runs in seconds;
the real figure-scale runs are ``benchmarks/fidelity.py``.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures import (
    fig1_phi_cdf,
    fig2_single_link_failure,
    link_flap_comparison,
    sec61_intelligent_selection,
    sec63_partial_deployment,
)
from repro.experiments.runner import (
    ExperimentConfig,
    PROTOCOLS,
    run_episode,
)
from repro.experiments.scenarios import (
    link_recovery,
    single_provider_link_failure,
)
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)


@pytest.fixture(scope="module")
def tiny_graph():
    graph, _ = generate_internet_topology(TINY)
    return graph


class TestRunScenario:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_each_protocol_runs_and_reports(self, tiny_graph, protocol):
        episode = single_provider_link_failure(tiny_graph, random.Random(1))
        run = run_episode(tiny_graph, episode, protocol, seed=2)
        assert run.protocol == protocol
        assert run.convergence_time >= 0
        assert run.initial_updates > 0
        assert run.report.eligible
        # One phase, and its report is the episode-wide one.
        (phase,) = run.phases
        assert phase.report is run.report

    def test_unknown_protocol_rejected(self, tiny_graph):
        episode = single_provider_link_failure(tiny_graph, random.Random(1))
        with pytest.raises(ConfigurationError):
            run_episode(tiny_graph, episode, "ebgp-turbo", seed=2)

    def test_recovery_scenario_is_clean_for_bgp(self, tiny_graph):
        """Lemma 3.1: route addition events cause no transient problems."""
        episode = link_recovery(tiny_graph, random.Random(4))
        run = run_episode(tiny_graph, episode, "bgp", seed=3)
        assert run.affected == 0

    def test_same_seed_reproduces_exactly(self, tiny_graph):
        episode = single_provider_link_failure(tiny_graph, random.Random(1))
        a = run_episode(tiny_graph, episode, "stamp", seed=9)
        b = run_episode(tiny_graph, episode, "stamp", seed=9)
        assert a.affected == b.affected
        assert a.convergence_time == b.convergence_time
        assert a.updates == b.updates

    def test_stamp_not_worse_than_bgp_on_average(self, tiny_graph):
        totals = {"bgp": 0, "stamp": 0}
        for i in range(4):
            episode = single_provider_link_failure(tiny_graph, random.Random(i))
            for protocol in totals:
                totals[protocol] += run_episode(
                    tiny_graph, episode, protocol, seed=i
                ).affected
        assert totals["stamp"] <= totals["bgp"]


class TestFigureFunctions:
    @pytest.fixture(scope="class")
    def config(self):
        return ExperimentConfig(seed=2, topology=TINY, n_instances=2)

    def test_fig1(self, config):
        data = fig1_phi_cdf(config)
        assert 0 <= data.mean_phi <= 1
        assert len(data.results) == TINY.total_ases

    def test_fig2(self, config):
        data = fig2_single_link_failure(config)
        means = data.mean_affected()
        assert set(means) == set(PROTOCOLS)
        assert all(v >= 0 for v in means.values())
        # Each protocol ran the configured number of instances.
        assert all(len(runs) == 2 for runs in data.runs.values())

    def test_a_keyword_the_family_does_not_take_fails_before_any_unit(
        self, config
    ):
        """Not as N supervised unit failures: the catalogue refuses to
        bind a keyword its builder was not declared to take."""
        with pytest.raises(TypeError, match="period"):
            fig2_single_link_failure(config, period=3.0)
        with pytest.raises(TypeError, match="perod"):
            link_flap_comparison(config, perod=3.0)

    def test_each_packaged_function_runs_the_family_it_is_named_for(self):
        """The five are bound to the catalogue's keys by position."""
        from repro.experiments import figures

        assert {
            name: getattr(figures, name).args
            for name in (
                "fig2_single_link_failure", "fig3a_two_links_distinct_as",
                "fig3b_two_links_same_as", "node_failure_comparison",
                "link_flap_comparison",
            )
        } == {
            "fig2_single_link_failure": ("fig2",),
            "fig3a_two_links_distinct_as": ("fig3a",),
            "fig3b_two_links_same_as": ("fig3b",),
            "node_failure_comparison": ("node-failure",),
            "link_flap_comparison": ("flap",),
        }

    def test_sec61(self, config):
        data = sec61_intelligent_selection(config)
        assert data.mean_phi_intelligent >= data.mean_phi_random - 1e-9

    def test_sec63_deployment(self, config):
        data = sec63_partial_deployment(config, trials=4)
        assert 0 <= data.tier1_only_fraction <= data.full_deployment_fraction <= 1

