"""Chaos tests of the supervised worker pool.

Each test injects a fault (via :mod:`repro.experiments.faults`) into
one unit of a small campaign grid and asserts the supervision
contract: transient faults are retried and the campaign output is
byte-identical to a clean run; persistent faults burn their attempts,
are classified (``exception`` / ``timeout`` / ``worker-death``), and
never cost any *other* unit its result.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
import time

import pytest

from repro.experiments.faults import FAULTS_ENV, combine_specs, fault_spec
from repro.experiments.parallel import ParallelRunner, WorkerBudget
from repro.experiments.reporting import format_failure_report
from repro.experiments.scenarios import single_provider_link_failure
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)
KIND = "fig2-single-link"
SEED = 7
N_INSTANCES = 3
PROTOCOLS = ("bgp", "stamp")


@pytest.fixture(scope="module")
def tiny_graph():
    graph, _ = generate_internet_topology(TINY)
    return graph


def _unit_stats(run):
    """Exact (repr-level) fingerprint of one unit's result."""
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


def _campaign(runner, graph):
    return runner.run_failure_comparison(
        single_provider_link_failure, KIND, SEED, N_INSTANCES, PROTOCOLS, graph
    )


@pytest.fixture(scope="module")
def baseline(tiny_graph):
    """Fingerprint of the failure-free sequential campaign."""
    assert FAULTS_ENV not in os.environ
    outcome = _campaign(ParallelRunner(workers=1), tiny_graph)
    assert outcome.complete
    return _stats(outcome)


def _chaos_runner(**overrides):
    settings = dict(workers=4, max_attempts=2, backoff_base=0.05)
    settings.update(overrides)
    return ParallelRunner(**settings)


class TestCleanSupervision:
    def test_pool_run_completes_everything(self, tiny_graph, baseline):
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete and not outcome.failures
        assert outcome.executed == N_INSTANCES * len(PROTOCOLS)
        assert outcome.ledger_hits == 0
        assert _stats(outcome) == baseline


class TestExceptionRecovery:
    def test_raise_once_is_retried_and_recovers(
        self, tiny_graph, baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "raise", instance=1, protocol="bgp",
            times=1, counter=str(tmp_path / "count"),
        ))
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete
        assert _stats(outcome) == baseline

    def test_raise_always_is_terminal_and_isolated(
        self, tiny_graph, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "raise", instance=1, protocol="bgp",
        ))
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert (failure.kind, failure.seed, failure.instance,
                failure.protocol) == (KIND, SEED, 1, "bgp")
        assert [a.cause for a in failure.attempts] == [
            "exception", "exception",
        ]
        assert "InjectedFault" in failure.attempts[0].detail
        # Every other unit is byte-identical to the clean run.
        stats = _stats(outcome)
        assert stats["stamp"] == baseline["stamp"]
        assert stats["bgp"] == [baseline["bgp"][0], baseline["bgp"][2]]


class TestWorkerDeathRecovery:
    def test_killed_worker_once_is_retried_and_recovers(
        self, tiny_graph, baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "exit", instance=0, protocol="stamp", scope="worker",
            times=1, counter=str(tmp_path / "count"),
        ))
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete
        assert _stats(outcome) == baseline

    def test_killed_worker_always_is_terminal_and_isolated(
        self, tiny_graph, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "exit", instance=0, protocol="stamp", scope="worker",
        ))
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert (failure.instance, failure.protocol) == (0, "stamp")
        assert [a.cause for a in failure.attempts] == [
            "worker-death", "worker-death",
        ]
        assert "exit code 3" in failure.attempts[0].detail
        stats = _stats(outcome)
        assert stats["bgp"] == baseline["bgp"]
        assert stats["stamp"] == [baseline["stamp"][1], baseline["stamp"][2]]


class TestTimeoutRecovery:
    def test_hung_unit_is_killed_and_retried(
        self, tiny_graph, baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "hang", instance=2, protocol="stamp", scope="worker",
            hang_seconds=30.0, times=1, counter=str(tmp_path / "count"),
        ))
        outcome = _campaign(
            _chaos_runner(unit_timeout=1.0), tiny_graph
        )
        assert outcome.complete
        assert _stats(outcome) == baseline

    def test_hung_unit_always_is_terminal_and_isolated(
        self, tiny_graph, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "hang", instance=2, protocol="stamp", scope="worker",
            hang_seconds=30.0,
        ))
        outcome = _campaign(
            _chaos_runner(unit_timeout=0.75), tiny_graph
        )
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert (failure.instance, failure.protocol) == (2, "stamp")
        assert [a.cause for a in failure.attempts] == ["timeout", "timeout"]
        assert "wall-clock" in failure.attempts[0].detail
        stats = _stats(outcome)
        assert stats["bgp"] == baseline["bgp"]
        assert stats["stamp"] == [baseline["stamp"][0], baseline["stamp"][1]]


class TestCombinedChaos:
    def test_crash_hang_and_kill_in_one_campaign(
        self, tiny_graph, baseline, monkeypatch
    ):
        """The acceptance scenario: one crashing unit, one hung unit,
        and one worker kill in a single workers=4 campaign.  Every
        other unit's result is byte-identical to a failure-free
        sequential run, and all three failures are classified."""
        monkeypatch.setenv(FAULTS_ENV, combine_specs(
            fault_spec("raise", instance=0, protocol="bgp"),
            fault_spec("hang", instance=1, protocol="stamp",
                       scope="worker", hang_seconds=30.0),
            fault_spec("exit", instance=2, protocol="bgp", scope="worker"),
        ))
        outcome = _campaign(
            _chaos_runner(unit_timeout=1.0), tiny_graph
        )
        causes = {
            (f.instance, f.protocol): [a.cause for a in f.attempts]
            for f in outcome.failures
        }
        assert causes == {
            (0, "bgp"): ["exception", "exception"],
            (1, "stamp"): ["timeout", "timeout"],
            (2, "bgp"): ["worker-death", "worker-death"],
        }
        stats = _stats(outcome)
        assert stats["bgp"] == [baseline["bgp"][1]]
        assert stats["stamp"] == [baseline["stamp"][0], baseline["stamp"][2]]
        report = format_failure_report(outcome.failures)
        assert "3 unit(s) failed terminally" in report
        assert "worker-death" in report and "timeout" in report


class TestInProcessPath:
    def test_inprocess_retry_recovers(
        self, tiny_graph, baseline, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "raise", instance=0, protocol="bgp",
            times=1, counter=str(tmp_path / "count"),
        ))
        outcome = _campaign(
            _chaos_runner(workers=1, backoff_base=0.01), tiny_graph
        )
        assert outcome.complete
        assert outcome.executed == N_INSTANCES * len(PROTOCOLS)
        assert _stats(outcome) == baseline

    def test_inprocess_timeout_is_warned_unenforceable(
        self, tiny_graph, caplog
    ):
        runner = ParallelRunner(workers=1, unit_timeout=5.0)
        units = [(single_provider_link_failure, KIND, SEED, 0, "bgp")]
        with caplog.at_level(
            logging.WARNING, "repro.experiments.supervisor"
        ):
            outcome = runner.run_units_supervised(tiny_graph, units)
        assert outcome.complete
        assert any(
            "not enforceable" in record.message for record in caplog.records
        )


class TestRunUnitsContract:
    def test_terminal_failure_keeps_the_surviving_units(
        self, tiny_graph, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "raise", instance=0, protocol="bgp",
        ))
        runner = ParallelRunner(workers=1, max_attempts=2, backoff_base=0.01)
        units = [
            (single_provider_link_failure, KIND, SEED, instance, "bgp")
            for instance in range(2)
        ]
        outcome = runner.run_units_supervised(tiny_graph, units)
        assert not outcome.complete
        assert len(outcome.failures) == 1
        assert outcome.failures[0].describe().startswith(
            f"unit {KIND}:{SEED}:0:bgp failed after 2 attempt(s)"
        )
        # The partial outcome still carries the surviving unit.
        assert outcome.results[0] is None
        assert outcome.results[1] is not None


class TestHostWithoutProcesses:
    """A sandbox that cannot create processes: ``workers=4`` is the same
    loop with nobody to hand a unit to, so every rule of the in-process
    path holds there too."""

    @staticmethod
    def _break_spawn(monkeypatch):
        import multiprocessing

        context = type(multiprocessing.get_context())

        def refuse(*args, **kwargs):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(context, "Pipe", refuse)
        monkeypatch.setattr(context.Process, "start", refuse)

    def test_stop_is_honoured_between_inprocess_attempts(
        self, tiny_graph, monkeypatch, caplog
    ):
        self._break_spawn(monkeypatch)
        stop = threading.Event()
        seen = []

        def on_progress(resolved, total):
            seen.append(resolved)
            if resolved >= 2:
                stop.set()

        runner = ParallelRunner(workers=4, unit_timeout=60.0)
        with caplog.at_level(
            logging.WARNING, "repro.experiments.supervisor"
        ):
            outcome = runner.run_failure_comparison(
                single_provider_link_failure, KIND, SEED, 4,
                ("bgp", "rbgp-norci", "rbgp", "stamp"), tiny_graph,
                stop_event=stop, on_progress=on_progress,
            )
        assert outcome.stopped and not outcome.complete
        assert not outcome.failures
        resolved = sum(len(runs) for runs in outcome.runs.values())
        assert 2 <= resolved < 16
        # None lost: everything reported as resolved came back.
        assert resolved == seen[-1] == outcome.executed
        messages = [record.getMessage() for record in caplog.records]
        assert any("cannot spawn worker processes" in m for m in messages)
        assert sum("not enforceable" in m for m in messages) == 1

    def test_unstopped_grid_is_byte_identical(
        self, tiny_graph, baseline, monkeypatch
    ):
        self._break_spawn(monkeypatch)
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete
        assert _stats(outcome) == baseline


class TestCooperativeStop:
    """The ``stop_event`` contract: a stop never loses finished work.

    This is the mechanism the campaign service's graceful shutdown and
    client cancel ride on — SIGTERM mid-campaign must cost zero
    completed units.
    """

    def test_stop_between_units_inprocess(self, tiny_graph):
        import threading

        stop = threading.Event()
        seen = []

        def on_progress(resolved, total):
            seen.append((resolved, total))
            if resolved >= 2:
                stop.set()

        runner = ParallelRunner(workers=1)
        outcome = runner.run_failure_comparison(
            single_provider_link_failure, KIND, SEED, N_INSTANCES,
            PROTOCOLS, tiny_graph, stop_event=stop,
            on_progress=on_progress,
        )
        assert outcome.stopped and not outcome.complete
        assert not outcome.failures
        resolved = sum(len(runs) for runs in outcome.runs.values())
        assert 2 <= resolved < N_INSTANCES * len(PROTOCOLS)
        assert seen[0] == (0, N_INSTANCES * len(PROTOCOLS))

    def test_stop_drains_inflight_pool_units(self, tiny_graph, baseline):
        import threading

        stop = threading.Event()

        def on_progress(resolved, total):
            if resolved >= 1:
                stop.set()

        outcome = _chaos_runner().run_failure_comparison(
            single_provider_link_failure, KIND, SEED, N_INSTANCES,
            PROTOCOLS, tiny_graph, stop_event=stop,
            on_progress=on_progress,
        )
        assert outcome.stopped
        assert not outcome.failures
        # Every result that did come back is byte-identical to the
        # clean run's — draining in-flight units corrupts nothing.
        stats = _stats(outcome)
        for protocol, runs in stats.items():
            assert runs == baseline[protocol][: len(runs)]

    def test_stop_loses_zero_ledgered_units(self, tiny_graph, tmp_path):
        """Regression for the service shutdown path: everything that
        completed before (or during) the stop is in the ledger, and a
        rerun recomputes exactly the remainder."""
        import threading

        ledger_path = tmp_path / "ledger.jsonl"
        stop = threading.Event()

        def on_progress(resolved, total):
            if resolved >= 3:
                stop.set()

        runner = ParallelRunner(workers=1, ledger=ledger_path)
        interrupted = runner.run_failure_comparison(
            single_provider_link_failure, KIND, SEED, N_INSTANCES,
            PROTOCOLS, tiny_graph, stop_event=stop,
            on_progress=on_progress,
        )
        assert interrupted.stopped
        completed = sum(len(runs) for runs in interrupted.runs.values())
        from repro.experiments.ledger import ResultLedger

        with ResultLedger(ledger_path) as ledger:
            assert len(ledger) == completed  # zero completed units lost
        resumed = runner.run_failure_comparison(
            single_provider_link_failure, KIND, SEED, N_INSTANCES,
            PROTOCOLS, tiny_graph,
        )
        assert resumed.complete
        assert resumed.ledger_hits == completed
        assert resumed.executed == N_INSTANCES * len(PROTOCOLS) - completed

    def test_preset_stop_runs_nothing(self, tiny_graph):
        import threading

        stop = threading.Event()
        stop.set()
        outcome = ParallelRunner(workers=1).run_failure_comparison(
            single_provider_link_failure, KIND, SEED, N_INSTANCES,
            PROTOCOLS, tiny_graph, stop_event=stop,
        )
        assert outcome.stopped
        assert outcome.executed == 0
        assert all(not runs for runs in outcome.runs.values())

    def test_stop_cuts_retry_backoff_short(self, tiny_graph, monkeypatch):
        """A stop during a long backoff pause returns promptly instead
        of sleeping out the full schedule."""
        import threading
        import time

        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "raise", instance=0, protocol="bgp",
        ))
        stop = threading.Event()
        runner = ParallelRunner(
            workers=1, max_attempts=2, backoff_base=30.0
        )
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        try:
            started = time.monotonic()
            outcome = runner.run_failure_comparison(
                single_provider_link_failure, KIND, SEED, 1, ("bgp",),
                tiny_graph, stop_event=stop,
            )
            elapsed = time.monotonic() - started
        finally:
            timer.cancel()
        assert outcome.stopped
        assert elapsed < 10.0  # nowhere near the 30s backoff


class TestBookkeepingIsLinear:
    def test_a_5000_unit_grid_resolves_in_time_linear_in_n(
        self, monkeypatch
    ):
        """Progress reporting and the pending queue cost O(1) per unit:
        ten times the grid takes about ten times as long (it took
        fifty times when each resolution re-summed the grid), computed
        or answered from the ledger, with ``on_progress`` set."""
        import time

        from repro.experiments import supervisor

        monkeypatch.setattr(
            supervisor, "run_unit", lambda graph, *unit: unit[3]
        )

        class MemoryLedger(dict):  # the timing is the bookkeeping's
            put = dict.__setitem__
            get = dict.__getitem__

            def refresh(self):
                pass

        def resolve(n, ledger):
            progress = []
            grid = supervisor.Supervisor(
                None,
                [(None, "kind", 0, i, "bgp") for i in range(n)],
                workers=1,
                max_attempts=1,
                unit_timeout=None,
                backoff_base=0.0,
                ledger=ledger,
                unit_keys=[str(i) for i in range(n)],
                on_progress=lambda done, total: progress.append(done),
            )
            started = time.process_time()
            outcome = grid.run()
            elapsed = time.process_time() - started
            assert outcome.results == list(range(n)) and progress[-1] == n
            return outcome, elapsed

        best = {}
        for _ in range(3):
            for n in (500, 5000):
                ledger = MemoryLedger()
                computed, t_computed = resolve(n, ledger)
                ledgered, t_ledgered = resolve(n, ledger)
                assert computed.executed == ledgered.ledger_hits == n
                for name, t in (("c", t_computed), ("l", t_ledgered)):
                    best[name, n] = min(t, best.get((name, n), t))
        assert best["c", 5000] < 25 * best["c", 500]
        assert best["l", 5000] < 25 * best["l", 500]


class TestSharedMemoryLifecycle:
    """The zero-copy topology fan-out contract (see repro.topology.shm).

    The campaign owns exactly one segment: created before the first
    dispatch, attached by name from every worker, unlinked in the
    pool's ``finally`` — so no campaign outcome (clean, chaotic, or a
    worker massacre) may leave an orphaned segment, and no topology
    bytes cross a worker pipe unless segment creation itself failed.
    """

    @staticmethod
    def _spy_share(monkeypatch):
        """Record every segment the supervisor publishes."""
        from repro.experiments import supervisor as supervisor_mod
        from repro.topology import shm as topology_shm

        created = []
        real = topology_shm.share_graph

        def recording_share(graph):
            shared = real(graph)
            created.append(shared.name)
            return shared

        monkeypatch.setattr(
            supervisor_mod.topology_shm, "share_graph", recording_share
        )
        return created

    @staticmethod
    def _spy_payloads(monkeypatch):
        """Record the topology payload every spawned worker is handed."""
        from repro.experiments.supervisor import Supervisor

        handed = []
        real = Supervisor._spawn_worker

        def recording_spawn(self):
            handed.append(self._payload)
            return real(self)

        monkeypatch.setattr(Supervisor, "_spawn_worker", recording_spawn)
        return handed

    @staticmethod
    def _break_share(monkeypatch):
        """Segment creation fails the way a sandbox without /dev/shm
        makes it fail — the only thing that selects the pipe carrier."""
        from repro.experiments import supervisor as supervisor_mod

        def no_dev_shm(graph):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(
            supervisor_mod.topology_shm, "share_graph", no_dev_shm
        )

    @staticmethod
    def _assert_unlinked(names):
        from repro.topology.shm import attach_graph

        assert names, "campaign never published a topology segment"
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_graph(name)

    def test_pool_attaches_segment_and_unlinks_after_campaign(
        self, tiny_graph, baseline, monkeypatch
    ):
        created = self._spy_share(monkeypatch)
        handed = self._spy_payloads(monkeypatch)
        outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete
        assert _stats(outcome) == baseline
        assert len(created) == 1  # one zero-copy segment per campaign
        # Every worker got the segment's name — never the topology.
        assert handed and set(handed) == {("shm", created[0])}
        self._assert_unlinked(created)

    def test_no_segment_leak_after_worker_kill(
        self, tiny_graph, baseline, monkeypatch
    ):
        """Workers dying uncatchably — a hard ``os._exit`` mid-unit and
        a supervisor SIGKILL of a hung worker — must not leak the
        segment: only the supervisor owns it, and its ``finally``
        unlinks no matter how many workers were replaced."""
        created = self._spy_share(monkeypatch)
        monkeypatch.setenv(FAULTS_ENV, combine_specs(
            fault_spec("exit", instance=0, protocol="stamp", scope="worker"),
            fault_spec("hang", instance=2, protocol="bgp",
                       scope="worker", hang_seconds=30.0),
        ))
        outcome = _campaign(_chaos_runner(unit_timeout=1.0), tiny_graph)
        causes = {
            (f.instance, f.protocol): [a.cause for a in f.attempts]
            for f in outcome.failures
        }
        assert causes == {
            (0, "stamp"): ["worker-death", "worker-death"],
            (2, "bgp"): ["timeout", "timeout"],
        }
        # Survivors are byte-identical; the segment is gone.
        stats = _stats(outcome)
        assert stats["bgp"] == [baseline["bgp"][0], baseline["bgp"][1]]
        assert stats["stamp"] == [baseline["stamp"][1], baseline["stamp"][2]]
        self._assert_unlinked(created)

    def test_pickle_fallback_is_byte_identical(
        self, tiny_graph, baseline, monkeypatch, caplog
    ):
        """When the segment cannot be created the same CSR bytes reach
        each worker over its pipe instead (with a warning); results
        must not change by a byte."""
        self._break_share(monkeypatch)
        handed = self._spy_payloads(monkeypatch)
        with caplog.at_level("WARNING", "repro.experiments.supervisor"):
            outcome = _campaign(_chaos_runner(), tiny_graph)
        assert outcome.complete
        assert _stats(outcome) == baseline
        assert "shared-memory topology export unavailable" in caplog.text
        expected = ("bytes", tiny_graph.csr_base().to_bytes())
        assert handed and all(payload == expected for payload in handed)

    @pytest.mark.parametrize("workers", (0, 4))
    def test_transports_agree_at_workers_0_and_4(
        self, tiny_graph, baseline, monkeypatch, workers
    ):
        """Acceptance: campaign fixtures byte-identical on the CSR core
        at workers in {0, 4}, on the shared-memory and pipe carriers."""
        shm_outcome = _campaign(_chaos_runner(workers=workers), tiny_graph)
        assert shm_outcome.complete
        assert _stats(shm_outcome) == baseline
        self._break_share(monkeypatch)
        pipe_outcome = _campaign(_chaos_runner(workers=workers), tiny_graph)
        assert pipe_outcome.complete
        assert _stats(pipe_outcome) == baseline


class TestWorkerBudget:
    """The shared slot pool the concurrent campaign scheduler draws on."""

    def test_grants_min_of_requested_and_free(self):
        budget = WorkerBudget(4)
        assert budget.acquire(2) == 2
        assert budget.acquire(8) == 2  # only 2 left
        assert budget.utilization() == {
            "total": 4, "allocated": 4, "free": 0,
        }

    def test_exhausted_budget_still_grants_the_minimum(self):
        # Floor of 1: a one-slot grant means in-process execution on
        # the lane thread — a starved campaign degrades, never stalls.
        budget = WorkerBudget(2)
        assert budget.acquire(2) == 2
        assert budget.acquire(4) == 1

    def test_release_returns_slots(self):
        budget = WorkerBudget(3)
        granted = budget.acquire(3)
        budget.release(granted)
        assert budget.utilization()["free"] == 3
        budget.release(99)  # over-release clamps, never goes negative
        assert budget.utilization()["allocated"] == 0

    def test_concurrent_acquires_never_lose_slots(self):
        budget = WorkerBudget(8)
        grants = []
        lock = threading.Lock()

        def worker():
            granted = budget.acquire(2)
            with lock:
                grants.append(granted)
            budget.release(granted)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(grants) == 16 and all(g >= 1 for g in grants)
        assert budget.utilization() == {
            "total": 8, "allocated": 0, "free": 8,
        }

    def test_budgeted_run_is_byte_identical(self, tiny_graph, baseline):
        # A fully contended budget forces the 1-slot in-process path;
        # the campaign bytes must not change.
        budget = WorkerBudget(4)
        hog = budget.acquire(4)
        starved = _campaign(
            _chaos_runner(workers=4, budget=budget), tiny_graph
        )
        assert starved.complete
        assert _stats(starved) == baseline
        budget.release(hog)
        roomy = _campaign(
            _chaos_runner(workers=4, budget=budget), tiny_graph
        )
        assert roomy.complete
        assert _stats(roomy) == baseline
        assert budget.utilization()["allocated"] == 0

    def test_slots_are_released_even_when_units_fail(
        self, tiny_graph, monkeypatch
    ):
        budget = WorkerBudget(4)
        monkeypatch.setenv(
            FAULTS_ENV,
            fault_spec(
                "raise", kind=KIND, seed=SEED, instance=1, protocol="bgp"
            ),
        )
        outcome = _campaign(
            _chaos_runner(workers=2, budget=budget), tiny_graph
        )
        assert outcome.failures
        assert budget.utilization()["allocated"] == 0


# ----------------------------------------------------------------------
# Dispatch order: an R-BGP pair stays on one worker
# ----------------------------------------------------------------------

FOUR = ("bgp", "rbgp-norci", "rbgp", "stamp")
#: Unit indices of instance 0 (and the first of instance 1) in a FOUR grid.
BGP0, NORCI0, RBGP0, STAMP0, BGP1, NORCI1, RBGP1 = range(7)


class _Gone:
    """Process and pipe of a worker that is no longer there."""

    exitcode = -9

    def poll(self):
        return False

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def close(self):
        pass


class TestDispatchOrder:
    """``Supervisor._next_eligible`` as pure cases: a grid that is never
    run, a hand-written queue, workers that are only bookkeeping."""

    @staticmethod
    def _grid(instances=2, protocols=FOUR, **settings):
        from repro.experiments.supervisor import Supervisor

        settings = dict(
            dict(workers=2, max_attempts=2, unit_timeout=None,
                 backoff_base=0.0),
            **settings,
        )
        grid = Supervisor(
            None,
            [(None, KIND, SEED, i, p)
             for i in range(instances) for p in protocols],
            **settings,
        )
        grid._pending.extend(range(instances * len(protocols)))
        return grid

    @staticmethod
    def _worker(grid, last=None, busy=False):
        """A worker that was handed ``last``, still running it if ``busy``."""
        from repro.experiments.supervisor import _Worker

        worker = _Worker(_Gone(), _Gone())
        worker.last = last
        if busy:
            worker.assignment = last
            grid._pending.remove(last)
        grid._workers.append(worker)
        return worker

    def test_twins_are_derived_from_the_units(self):
        from repro.experiments.supervisor import _twin_indices

        def other():
            pass

        units = [(None, KIND, SEED, i, p) for i in range(2) for p in FOUR]
        assert _twin_indices(units) == [
            None, RBGP0, NORCI0, None, None, RBGP1, NORCI1, None,
        ]
        # One of the family alone has no twin; neither has a unit whose
        # builder, kind, seed or instance differs.
        assert _twin_indices(
            [(None, KIND, SEED, 0, "rbgp"), (None, KIND, SEED, 0, "bgp")]
        ) == [None, None]
        for stranger in (
            (other, KIND, SEED, 0, "rbgp"),
            (None, "fig3a", SEED, 0, "rbgp"),
            (None, KIND, SEED + 1, 0, "rbgp"),
            (None, KIND, SEED, 1, "rbgp"),
            (None, KIND, SEED, 0, "rbgp-norci"),
        ):
            assert _twin_indices(
                [(None, KIND, SEED, 0, "rbgp-norci"), stranger]
            ) == [None, None]

    def test_a_worker_is_handed_the_twin_of_its_last_unit(self):
        grid = self._grid()
        grid._pending.rotate(-RBGP1)  # the twin is nowhere near the head
        worker = self._worker(grid, last=NORCI0)
        grid._pending.remove(NORCI0)
        assert grid._next_eligible(0.0, worker) == RBGP0
        assert RBGP0 not in grid._pending
        # Whichever of the two ran first: the slot serves both orders.
        grid._pending.append(NORCI1)
        worker.last = RBGP1
        grid._pending.remove(RBGP1)
        assert grid._next_eligible(0.0, worker) == NORCI1

    def test_a_held_twin_is_skipped_while_another_unit_is_eligible(self):
        grid = self._grid()
        self._worker(grid, last=NORCI0, busy=True)
        idle = self._worker(grid, last=BGP0)
        grid._pending.remove(BGP0)
        assert grid._pending[0] == RBGP0
        assert grid._next_eligible(0.0, idle) == STAMP0
        assert grid._pending[0] == RBGP0  # kept for the other worker
        # A worker not spawned yet is no exception.
        assert grid._next_eligible(0.0, None) == BGP1

    def test_the_hold_ends_when_nothing_else_is_eligible(self):
        grid = self._grid(instances=1)
        self._worker(grid, last=NORCI0, busy=True)
        idle = self._worker(grid, last=BGP0)
        grid._pending.remove(BGP0)
        grid._not_before[STAMP0] = 10.0  # backing off
        assert list(grid._pending) == [RBGP0, STAMP0]
        assert grid._next_eligible(0.0, idle) == RBGP0
        assert grid._next_eligible(0.0, idle) is None
        assert grid._next_eligible(10.0, idle) == STAMP0

    def test_backoff_is_respected(self):
        grid = self._grid()
        worker = self._worker(grid, last=NORCI0)
        grid._pending.remove(NORCI0)
        grid._not_before[RBGP0] = 5.0
        grid._not_before[BGP0] = 5.0
        # Its own twin is backing off: the first unit that is not.
        assert grid._next_eligible(1.0, worker) == STAMP0
        assert list(grid._pending)[:2] == [BGP0, RBGP0]
        for index in grid._pending:
            grid._not_before[index] = 5.0
        assert grid._next_eligible(1.0, worker) is None
        assert grid._next_eligible(5.0, worker) == RBGP0

    @pytest.mark.parametrize("how", ["timeout", "death"])
    def test_a_twin_whose_partner_is_gone_is_not_starved(self, how):
        grid = self._grid(unit_timeout=1.0)
        partner = self._worker(grid, last=NORCI0, busy=True)
        idle = self._worker(grid, last=BGP0)
        grid._pending.remove(BGP0)
        if how == "timeout":
            partner.deadline = 0.0
            grid._reap_timeouts()
        else:
            grid._reap_deaths([partner])
        assert partner not in grid._workers
        assert [a.cause for a in grid._attempts[NORCI0]] == [
            "timeout" if how == "timeout" else "worker-death"
        ]
        assert grid._pending[-1] == NORCI0  # charged, queued for a retry
        assert grid._next_eligible(time.monotonic(), idle) == RBGP0
        # The retry, in turn, is held for the worker now running rbgp.
        idle.assignment = idle.last = RBGP0
        assert grid._next_eligible(time.monotonic(), None) == STAMP0

    def test_busy_workers_leave_the_queue_alone(self):
        grid = self._grid()
        self._worker(grid, last=BGP0, busy=True)
        self._worker(grid, last=NORCI0, busy=True)
        grid._pool_cap = 2
        before = list(grid._pending)
        grid._dispatch()
        assert list(grid._pending) == before

    def test_a_grid_without_a_pool_keeps_index_order(self, monkeypatch):
        """Nothing is ever in flight there, so nothing is ever held:
        the order is the queue's, a retry joining at the tail."""
        from repro.experiments import supervisor

        order = []

        def run_unit(graph, builder, kind, seed, instance, protocol):
            order.append((instance, protocol))
            if (instance, protocol) == (0, "rbgp-norci") and len(order) == 2:
                raise RuntimeError("once")
            return len(order)

        monkeypatch.setattr(supervisor, "run_unit", run_unit)
        grid = self._grid(instances=3, workers=1)
        grid._pending.clear()
        outcome = grid.run()
        assert outcome.complete
        grid_order = [(i, p) for i in range(3) for p in FOUR]
        assert order == grid_order + [(0, "rbgp-norci")]


def _count_twin_starts(monkeypatch, path):
    """Append ``s`` per twin-start snapshot taken and ``r`` per restore
    to ``path`` — from whichever process does it: the patch is
    inherited by forked workers, and O_APPEND writes do not tear."""
    from repro.experiments.runner import _StartSnapshot

    def mark(byte):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, byte)
        finally:
            os.close(fd)

    real_init, real_restore = _StartSnapshot.__init__, _StartSnapshot.restore

    def counting_init(self, network, graph):
        mark(b"s")
        real_init(self, network, graph)

    def counting_restore(self):
        mark(b"r")
        return real_restore(self)

    monkeypatch.setattr(_StartSnapshot, "__init__", counting_init)
    monkeypatch.setattr(_StartSnapshot, "restore", counting_restore)


@pytest.fixture(scope="module")
def baseline_four(tiny_graph):
    outcome = ParallelRunner(workers=1).run_failure_comparison(
        single_provider_link_failure, KIND, SEED, 8, FOUR, tiny_graph
    )
    assert outcome.complete
    return _stats(outcome)


class TestAPoolSharesTwinStarts:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the counting patch reaches the workers by fork",
    )
    @pytest.mark.parametrize("workers, least", [(1, 8), (2, 7), (4, 6)])
    def test_fig2_restores_nearly_every_twin(
        self, tiny_graph, baseline_four, monkeypatch, tmp_path,
        workers, least,
    ):
        """``fig2`` × 8: eight R-BGP pairs, eight starts to share.  With
        the head-of-queue rule a pool restored one or two of them, four
        at most (the twin went to the other worker while the first
        still ran); now only the tail of the grid can cost a share —
        one per worker whose partner is still running when the queue
        holds nothing but held twins."""
        marks = tmp_path / "marks"
        _count_twin_starts(monkeypatch, str(marks))
        outcome = ParallelRunner(workers=workers).run_failure_comparison(
            single_provider_link_failure, KIND, SEED, 8, FOUR, tiny_graph
        )
        assert outcome.complete and _stats(outcome) == baseline_four
        counts = marks.read_bytes()
        restores = counts.count(b"r")
        assert restores >= least, counts
        # Every R-BGP unit either restored a start or simulated one
        # (and then parked it).
        assert counts.count(b"s") + restores == 16

    def test_a_crashed_twin_costs_a_share_not_a_result(
        self, tiny_graph, baseline_four, monkeypatch, tmp_path
    ):
        """The worker running ``rbgp-norci`` dies once: its unit is
        retried, the ``rbgp`` twin it held is released at once, and the
        campaign ends as one worker would have ended it."""
        monkeypatch.setenv(FAULTS_ENV, fault_spec(
            "exit", instance=3, protocol="rbgp-norci", scope="worker",
            times=1, counter=str(tmp_path / "count"),
        ))
        outcome = ParallelRunner(
            workers=2, max_attempts=2, backoff_base=0.05
        ).run_failure_comparison(
            single_provider_link_failure, KIND, SEED, 8, FOUR, tiny_graph
        )
        assert (tmp_path / "count").read_bytes() == b"xx"  # died, retried
        assert outcome.complete and outcome.executed == 32
        assert _stats(outcome) == baseline_four
