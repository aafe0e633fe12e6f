"""Resumable-campaign tests: the ledger answers what it has seen.

The contract under test: a campaign with a ledger recomputes exactly
the units missing from it — an interrupted sweep restarted with the
same ledger finishes the remainder and produces output byte-identical
to a clean uninterrupted run; units keyed by different inputs (kind,
topology) never collide.
"""

from __future__ import annotations

import functools
import logging
import pickle

import pytest

from repro.experiments.canonical import graph_content_hash, unit_key
from repro.experiments.ledger import ResultLedger
from repro.experiments.parallel import ParallelRunner
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
    two_link_failures_distinct_as,
)
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology
from faults import fault_spec, install
from test_ledger import _rot_payload

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)
KIND = "fig2-single-link"
SEED = 7
N_INSTANCES = 3
PROTOCOLS = ("bgp", "stamp")
N_UNITS = N_INSTANCES * len(PROTOCOLS)


@pytest.fixture(scope="module")
def tiny_graph():
    graph, _ = generate_internet_topology(TINY)
    return graph


def _unit_stats(run):
    return (
        run.affected,
        run.updates,
        run.initial_updates,
        repr(run.convergence_time),
        repr(run.disruption_duration),
    )


def _stats(outcome):
    return {
        protocol: [_unit_stats(run) for run in runs]
        for protocol, runs in outcome.runs.items()
    }


def _campaign(graph, *, n_instances=N_INSTANCES, **runner_settings):
    runner = ParallelRunner(**runner_settings)
    return runner.run_failure_comparison(
        single_provider_link_failure, KIND, SEED, n_instances, PROTOCOLS, graph
    )


class TestLedgerBackedCampaign:
    def test_identical_rerun_is_answered_entirely_from_ledger(
        self, tiny_graph, tmp_path
    ):
        ledger = tmp_path / "ledger.jsonl"
        first = _campaign(tiny_graph, ledger=ledger)
        assert first.executed == N_UNITS and first.ledger_hits == 0
        second = _campaign(tiny_graph, ledger=ledger)
        assert second.executed == 0 and second.ledger_hits == N_UNITS
        assert _stats(second) == _stats(first)

    def test_ledger_is_worker_count_invariant(self, tiny_graph, tmp_path):
        """Results computed by a workers=4 pool resume a sequential
        sweep (and vice versa) — the key covers inputs, not placement."""
        ledger = tmp_path / "ledger.jsonl"
        pooled = _campaign(tiny_graph, workers=4, ledger=ledger)
        assert pooled.executed == N_UNITS
        sequential = _campaign(tiny_graph, workers=1, ledger=ledger)
        assert sequential.executed == 0
        assert sequential.ledger_hits == N_UNITS
        assert _stats(sequential) == _stats(pooled)

    @pytest.mark.parametrize("workers", (1, 4))
    def test_interrupted_campaign_resumes_missing_units_only(
        self, tiny_graph, tmp_path, monkeypatch, workers
    ):
        """The acceptance scenario: a campaign is interrupted (one unit
        fails terminally with retries exhausted), then restarted with
        the same ledger and no fault.  The restart recomputes exactly
        the missing unit and the final output is byte-identical to a
        clean uninterrupted run, in-process and on a pool."""
        ledger = tmp_path / "ledger.jsonl"
        clean = _campaign(tiny_graph)  # no ledger: the golden output
        with monkeypatch.context() as patch:
            install(patch, fault_spec(
                "raise", instance=2, protocol="stamp",
            ))
            interrupted = _campaign(
                tiny_graph, retries=0, ledger=ledger, workers=workers
            )
        assert len(interrupted.failures) == 1
        assert interrupted.executed == N_UNITS - 1
        resumed = _campaign(tiny_graph, ledger=ledger, workers=workers)
        assert resumed.complete
        assert resumed.executed == 1
        assert resumed.ledger_hits == N_UNITS - 1
        assert _stats(resumed) == _stats(clean)

    def test_overlapping_sweep_recomputes_only_new_instances(
        self, tiny_graph, tmp_path
    ):
        ledger = tmp_path / "ledger.jsonl"
        small = _campaign(tiny_graph, n_instances=2, ledger=ledger)
        assert small.executed == 2 * len(PROTOCOLS)
        grown = _campaign(tiny_graph, n_instances=4, ledger=ledger)
        assert grown.ledger_hits == 2 * len(PROTOCOLS)
        assert grown.executed == 2 * len(PROTOCOLS)
        fresh = _campaign(tiny_graph, n_instances=4)
        assert _stats(grown) == _stats(fresh)


class TestBorrowedLedger:
    """A runner handed an open ledger (the service's case) borrows it:
    catches it up before each grid, never closes it."""

    def test_campaigns_share_one_open_ledger_with_a_foreign_writer(
        self, tiny_graph, tmp_path
    ):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as shared:
            first = _campaign(tiny_graph, n_instances=2, ledger=shared)
            assert first.executed == 4 and first.ledger_hits == 0
            assert shared._log._fd is not None  # borrowed: left open
            # Another writer (a CLI run on the same file) adds a unit...
            foreign = _campaign(tiny_graph, ledger=path)
            assert foreign.executed == 2 and foreign.ledger_hits == 4
            # ... which the open ledger picks up without being reopened.
            again = _campaign(tiny_graph, ledger=shared)
            assert again.executed == 0 and again.ledger_hits == N_UNITS
            assert _stats(again) == _stats(foreign)
        assert _stats(_campaign(tiny_graph)) == _stats(again)

    def test_a_record_that_rots_after_indexing_is_recomputed(
        self, tiny_graph, tmp_path, caplog
    ):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as shared:
            clean = _campaign(tiny_graph, ledger=shared)
            assert len(shared) == N_UNITS
            _rot_payload(path, sorted(shared.keys())[0])
            with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
                resumed = _campaign(tiny_graph, ledger=shared)
            assert resumed.complete
            assert resumed.executed == 1
            assert resumed.ledger_hits == N_UNITS - 1
            assert _stats(resumed) == _stats(clean)
            assert shared.dropped_records == 1
            assert sum(
                "no longer reads back" in r.getMessage()
                for r in caplog.records
            ) == 1
            # The recomputed unit was appended: fully ledgered again.
            assert _campaign(tiny_graph, ledger=shared).executed == 0


class TestKeyIsolation:
    def test_different_kind_does_not_hit(self, tiny_graph, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        _campaign(tiny_graph, ledger=ledger)
        runner = ParallelRunner(ledger=ledger)
        other = runner.run_failure_comparison(
            two_link_failures_distinct_as, "fig3a-distinct-as",
            SEED, N_INSTANCES, PROTOCOLS, tiny_graph,
        )
        assert other.ledger_hits == 0
        assert other.executed == N_UNITS

    def test_different_seed_does_not_hit(self, tiny_graph, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        _campaign(tiny_graph, ledger=ledger)
        runner = ParallelRunner(ledger=ledger)
        other = runner.run_failure_comparison(
            single_provider_link_failure, KIND, SEED + 1,
            N_INSTANCES, PROTOCOLS, tiny_graph,
        )
        assert other.ledger_hits == 0

    def test_different_topology_does_not_hit(self, tiny_graph, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        _campaign(tiny_graph, ledger=ledger)
        other_graph, _ = generate_internet_topology(
            InternetTopologyConfig(
                seed=6, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
            )
        )
        outcome = _campaign(other_graph, ledger=ledger)
        assert outcome.ledger_hits == 0
        assert outcome.executed == N_UNITS


class TestEpisodeCampaignResume:
    def test_partial_episode_builder_is_ledgerable(
        self, tiny_graph, tmp_path
    ):
        """Episode campaigns key on the builder's bound arguments, so
        a ``functools.partial`` family resumes — and different bound
        arguments do not collide."""
        ledger = tmp_path / "ledger.jsonl"
        builder = functools.partial(link_flap_episode, period=20.0, flaps=1)
        runner = ParallelRunner(ledger=ledger)
        first = runner.run_failure_comparison(
            builder, "link-flap", SEED, 1, PROTOCOLS, tiny_graph
        )
        assert first.executed == len(PROTOCOLS)
        second = runner.run_failure_comparison(
            builder, "link-flap", SEED, 1, PROTOCOLS, tiny_graph
        )
        assert second.executed == 0
        assert second.ledger_hits == len(PROTOCOLS)
        assert _stats(second) == _stats(first)
        other_family = functools.partial(
            link_flap_episode, period=20.0, flaps=2
        )
        third = runner.run_failure_comparison(
            other_family, "link-flap", SEED, 1, PROTOCOLS, tiny_graph
        )
        assert third.ledger_hits == 0


class TestCliLedgerFlow:
    TINY_ARGS = [
        "--tier1", "3", "--tier2", "6", "--tier3", "10", "--stubs", "20",
        "--instances", "2",
    ]

    def test_fig2_with_ledger_resumes_identically(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        args = self.TINY_ARGS + ["--ledger", str(ledger), "fig2"]
        assert main(args) == 0
        first_output = capsys.readouterr().out
        assert ledger.exists() and ledger.stat().st_size > 0
        size_after_first = ledger.stat().st_size
        assert main(args) == 0
        second_output = capsys.readouterr().out
        assert second_output == first_output
        # The resumed run answered from the ledger: nothing was appended.
        assert ledger.stat().st_size == size_after_first

    def test_ledger_from_before_a_salt_bump_recomputes_everything(
        self, tmp_path, capsys, caplog, monkeypatch
    ):
        """An upgrade that bumps ``LEDGER_SALT`` meets an old ledger.

        The file's header names the old salt and its records sit under
        old-salt keys — here the very units the campaign runs, holding
        pickles of a class this build no longer has.  Every key misses:
        nothing stale is unpickled, the campaign recomputes all of it
        and prints what an unledgered run prints; the fresh results
        land in the same file, so the next run is fully ledgered.
        """
        from repro.cli import main
        from repro.experiments.runner import PROTOCOLS as planes

        old_salt = "repro-unit-v1"
        stale = b"\x80\x04crepro.experiments.runner\nProtocolRun\n."
        with pytest.raises(AttributeError):
            pickle.loads(stale)
        graph, _ = generate_internet_topology(InternetTopologyConfig(
            seed=0, n_tier1=3, n_tier2=6, n_tier3=10, n_stub=20
        ))
        graph_hash = graph_content_hash(graph)
        units = [(i, protocol) for i in range(2) for protocol in planes]

        def key(instance, protocol, **salt):
            return unit_key(
                graph_hash, single_provider_link_failure, KIND, 0,
                instance, protocol, **salt,
            )

        ledger = tmp_path / "ledger.jsonl"
        ledger.write_bytes(
            ResultLedger.encode_header(old_salt) + b"".join(
                ResultLedger.encode_record(
                    key(*unit, salt=old_salt), stale, 1.0
                )
                for unit in units
            )
        )

        outcomes = []
        run = ParallelRunner.run_failure_comparison

        def spy(self, *args, **kwargs):
            outcomes.append(run(self, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(ParallelRunner, "run_failure_comparison", spy)

        def campaign(args):
            caplog.clear()
            with caplog.at_level(logging.WARNING, "repro.experiments.ledger"):
                assert main(self.TINY_ARGS + args + ["fig2"]) == 0
            foreign_salt_warnings = sum(
                "differs from the current" in record.getMessage()
                for record in caplog.records
            )
            last = outcomes[-1]
            return (
                capsys.readouterr().out, foreign_salt_warnings,
                last.executed, last.ledger_hits,
            )

        unledgered, *_ = campaign([])
        assert campaign(["--ledger", str(ledger)]) == (
            unledgered, 1, len(units), 0
        )
        assert campaign(["--ledger", str(ledger)]) == (
            unledgered, 1, 0, len(units)
        )
        # The stale records are dead weight, and the header still
        # names the salt the file was created under.
        with ResultLedger(ledger) as reopened:
            assert reopened.salt == old_salt
            assert sorted(reopened.keys()) == sorted(
                [key(*unit, salt=old_salt) for unit in units]
                + [key(*unit) for unit in units]
            )
