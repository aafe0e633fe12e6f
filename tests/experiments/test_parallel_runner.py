"""Tests of the parallel experiment execution subsystem.

The contract under test: worker count is invisible in the results.
``ParallelRunner`` re-derives every unit's seeds deterministically and
merges in canonical (instance, protocol) order, so ``workers=4`` must
reproduce ``workers=1`` byte-for-byte — including when the topology
reaches the workers through the binary serialization round trip.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments.figures import fig2_single_link_failure
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentConfig, PROTOCOLS, derive_run_seed
from repro.experiments.scenarios import single_provider_link_failure
from repro.experiments.supervisor import run_unit
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)


@pytest.fixture(scope="module")
def tiny_graph():
    graph, _ = generate_internet_topology(TINY)
    return graph


def _stats(data):
    """Exact (repr-level) statistics of one FailureFigureData."""
    return {
        "kinds": sorted(data.runs),
        "affected": {p: [r.affected for r in runs] for p, runs in data.runs.items()},
        "updates": {p: [r.updates for r in runs] for p, runs in data.runs.items()},
        "initial": {
            p: [r.initial_updates for r in runs] for p, runs in data.runs.items()
        },
        "convergence": {
            p: [repr(r.convergence_time) for r in runs]
            for p, runs in data.runs.items()
        },
        "disruption": {
            p: [repr(r.disruption_duration) for r in runs]
            for p, runs in data.runs.items()
        },
    }


class TestDeterministicMerge:
    def test_workers_1_and_4_produce_identical_stats(self, tiny_graph):
        config = ExperimentConfig(seed=3, topology=TINY, n_instances=4)
        data1 = fig2_single_link_failure(
            config, graph=tiny_graph, runner=ParallelRunner(workers=1)
        )
        data4 = fig2_single_link_failure(
            config, graph=tiny_graph, runner=ParallelRunner(workers=4)
        )
        assert _stats(data1) == _stats(data4)

    def test_merge_order_is_canonical(self, tiny_graph):
        """Every protocol gets one run per instance, in instance order."""
        runner = ParallelRunner(workers=2)
        outcome = runner.run_failure_comparison(
            single_provider_link_failure,
            "fig2-single-link",
            7,
            3,
            PROTOCOLS,
            tiny_graph,
        )
        assert outcome.complete and not outcome.failures
        runs = outcome.runs
        assert sorted(runs) == sorted(PROTOCOLS)
        for protocol, protocol_runs in runs.items():
            assert len(protocol_runs) == 3
            assert all(r.protocol == protocol for r in protocol_runs)
        # Instance i runs the same scenario under every protocol.
        for i in range(3):
            destinations = {runs[p][i].episode.destination for p in PROTOCOLS}
            assert len(destinations) == 1

    def test_unit_is_deterministic_across_calls(self, tiny_graph):
        a = run_unit(tiny_graph, single_provider_link_failure, "k", 1, 0, "bgp")
        b = run_unit(tiny_graph, single_provider_link_failure, "k", 1, 0, "bgp")
        assert a.affected == b.affected
        assert a.updates == b.updates
        assert repr(a.convergence_time) == repr(b.convergence_time)


class TestSettingsAreChecked:
    """The runner checks the execution settings it declares, and the
    config what a campaign computes, when they are built: nothing
    downstream meets a value out of range."""

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(workers=0), "workers must be >= 1, got 0"),
            (dict(workers=-3), "workers must be >= 1, got -3"),
            (dict(retries=-1), "retries must be >= 0, got -1"),
            (dict(unit_timeout=0), "unit_timeout must be a positive"),
            (dict(unit_timeout=-5.0), "unit_timeout must be a positive"),
            (dict(unit_timeout=float("nan")), "unit_timeout must be a positive"),
        ],
    )
    def test_the_runner_refuses_settings_out_of_range(self, settings, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ParallelRunner(**settings)

    def test_the_edges_of_every_rule_are_accepted(self):
        runner = ParallelRunner(workers=1, retries=0, unit_timeout=0.001)
        assert (runner.workers, runner.retries) == (1, 0)

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(n_instances=0), "n_instances must be >= 1, got 0"),
            (dict(n_instances=-2), "n_instances must be >= 1, got -2"),
            (dict(protocols=("bgp", "ospf")), "unknown protocol(s) 'ospf'"),
        ],
    )
    def test_the_config_refuses_a_grid_out_of_range(self, settings, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ExperimentConfig(**settings)

    def test_a_refusing_builder_is_asked_once_before_the_ledger(
        self, tiny_graph, tmp_path, monkeypatch
    ):
        """The builder's refusal holds whatever the draw: it is raised
        once, before any unit is attempted or the ledger is opened."""
        from repro.experiments import supervisor

        calls = []

        def refusing(graph, rng):
            calls.append(rng)
            raise ConfigurationError("graph has no multi-homed AS")

        def no_unit(*args, **kwargs):
            raise AssertionError("a unit was attempted")

        monkeypatch.setattr(supervisor, "run_unit", no_unit)
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(ConfigurationError, match="no multi-homed AS"):
            ParallelRunner(workers=2, ledger=ledger).run_failure_comparison(
                refusing, "fig2-single-link", 0, 5, PROTOCOLS, tiny_graph
            )
        assert len(calls) == 1
        assert not ledger.exists()


class TestRunSeedScheme:
    def test_seeds_differ_across_kinds(self):
        """Regression: seed*1000+instance collided across experiment
        kinds (fig2 instance 0 == sec63 instance 0 == ...)."""
        kinds = ["fig2-single-link", "fig3a-distinct-as", "sec63-overhead"]
        seeds = {derive_run_seed(0, kind, 0) for kind in kinds}
        assert len(seeds) == len(kinds)

    def test_seeds_do_not_collide_at_large_instance_counts(self):
        """Regression: the old stride overflowed at n_instances >= 1000
        (seed 0 instance 1000 == seed 1 instance 0)."""
        seen = set()
        for seed in range(3):
            for instance in range(0, 2001, 250):
                seen.add(derive_run_seed(seed, "fig2-single-link", instance))
        assert len(seen) == 3 * 9

    def test_seed_is_stable(self):
        """The scheme is part of the reproducibility contract."""
        assert derive_run_seed(0, "fig2-single-link", 0) == derive_run_seed(
            0, "fig2-single-link", 0
        )


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW", "0") != "1",
    reason="scale-5.0 smoke takes minutes; set REPRO_RUN_SLOW=1",
)
class TestScale5Smoke:
    """First end-to-end coverage of a scale-5.0 (~3100 AS) topology."""

    SCALE5 = InternetTopologyConfig(
        seed=0, n_tier1=16, n_tier2=240, n_tier3=600, n_stub=2200
    )

    def test_generation_and_one_fig2_instance(self):
        graph, tiers = generate_internet_topology(self.SCALE5)
        assert len(graph) == 16 + 240 + 600 + 2200
        config = ExperimentConfig(seed=0, topology=self.SCALE5, n_instances=1)
        data = fig2_single_link_failure(config, graph=graph)
        measured = data.mean_affected()
        assert measured["bgp"] > measured["stamp"]


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_SLOW", "0") != "1",
    reason="scale-20 smoke takes minutes; set REPRO_RUN_SLOW=1",
)
class TestScale20Smoke:
    """Internet-scale coverage of the CSR core: a scale-20 (~12.3k AS)
    topology must build, freeze, publish over shared memory, and run
    a smoke campaign through the supervised pool."""

    SCALE20 = InternetTopologyConfig(
        seed=0, n_tier1=20, n_tier2=960, n_tier3=2400, n_stub=8800
    )

    def test_generation_freezing_and_sharing(self):
        graph, _ = generate_internet_topology(self.SCALE20)
        assert len(graph) == 20 + 960 + 2400 + 8800
        graph.csr_base()
        assert graph.tier1s() == tuple(range(1, 21))
        from repro.topology.shm import (
            attach_graph,
            share_graph,
            shared_memory_available,
        )

        if shared_memory_available():
            with share_graph(graph) as shared:
                with attach_graph(shared.name) as attached:
                    assert len(attached.graph) == len(graph)
                    asn = graph.ases[len(graph) // 2]
                    assert attached.graph.neighbors(asn) == graph.neighbors(asn)

    def test_one_fig2_instance_campaign(self):
        graph, _ = generate_internet_topology(self.SCALE20)
        config = ExperimentConfig(
            seed=0, topology=self.SCALE20, n_instances=1,
            protocols=("bgp", "stamp"),
        )
        data = fig2_single_link_failure(
            config, graph=graph, runner=ParallelRunner(workers=2)
        )
        measured = data.mean_affected()
        assert measured["bgp"] > measured["stamp"]
