"""Parallel experiment execution: supervised fan-out of work units.

A figure experiment is a grid of independent ``(instance, protocol)``
simulations over one shared topology — embarrassingly parallel.  The
:class:`ParallelRunner` fans that grid out over the *supervised worker
pool* of :mod:`repro.experiments.supervisor`:

* the topology is generated once and published as a shared-memory CSR
  segment (:mod:`repro.topology.shm`) that every worker attaches by
  name — zero-copy fan-out; only where no segment can be created do
  the same bytes travel to each worker over its pipe instead;
* each work unit re-derives its scenario RNG and simulation seed from
  the same deterministic ``f"{seed}:{kind}:{instance}"`` scheme the
  sequential path uses — a unit's result does not depend on which
  process runs it, how often it was retried, or where it ran;
* results are merged in canonical ``(instance, protocol)`` order, so
  parallel output is byte-identical to sequential output (pinned by
  ``tests/experiments/test_parallel_runner.py`` and the golden
  determinism test);
* a unit that raises, hangs past ``unit_timeout``, or takes its worker
  down with it is retried with exponential backoff and, if it keeps
  failing, reported as a structured
  :class:`~repro.experiments.supervisor.UnitFailure` — the rest of the
  campaign completes and is returned.

``workers <= 1`` runs the same scheduling loop with no worker
processes: every attempt executes in-process, under the same retry
accounting and stop rules.  So do single-unit grids, and so — with a
logged warning — do environments that cannot spawn processes.

With ``ledger`` set, every completed unit is appended to a crash-safe
:class:`~repro.experiments.ledger.ResultLedger` keyed by its canonical
input hash, and units already present are answered from disk —
interrupted or overlapping sweeps recompute only never-seen units (see
``docs/robustness.md``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.canonical import graph_content_hash, unit_key
from repro.experiments.ledger import ResultLedger
from repro.experiments.runner import EpisodeRun
from repro.experiments.supervisor import (
    Supervisor,
    SupervisedOutcome,
    UnitFailure,
    WorkerBudget,
    WorkUnit,
)
from repro.topology.graph import ASGraph


@dataclass
class FailureFigureData:
    """One campaign grid's result: per-protocol runs and their aggregates.

    ``runs`` maps protocol to the per-instance run list in canonical
    instance order — independent of scheduling, retries and ledger
    hits.  ``failures`` is the structured failure report: units that
    exhausted every supervised retry.  A failed unit is *omitted* from
    its protocol's list (the aggregates simply see one fewer sample), so
    a failure-free campaign is byte-identical to an unsupervised one.
    ``executed`` and ``ledger_hits`` say how much work the sweep paid
    for; neither they nor ``stopped`` enter any result document.

    The ``mean_*`` aggregates read each run's episode-wide report (a
    single-instant figure's only one); ``mean_affected_by_phase``
    breaks a multi-phase campaign down by injection instant.
    """

    scenario_kind: str
    runs: Dict[str, List[EpisodeRun]] = field(default_factory=dict)
    failures: List[UnitFailure] = field(default_factory=list)
    executed: int = 0
    ledger_hits: int = 0
    #: True when a cooperative stop interrupted the grid: the unrun
    #: units are simply absent from ``runs`` (no failure records), and
    #: a rerun with the same ledger recomputes exactly them.
    stopped: bool = False

    @property
    def complete(self) -> bool:
        return not self.failures and not self.stopped

    def _mean(self, attribute: str) -> Dict[str, float]:
        return {
            protocol: statistics.fmean(getattr(run, attribute) for run in runs)
            for protocol, runs in self.runs.items()
            if runs
        }

    def mean_affected(self) -> Dict[str, float]:
        """Protocol -> mean number of affected ASes (the bar heights)."""
        return self._mean("affected")

    def mean_convergence_time(self) -> Dict[str, float]:
        """Protocol -> mean simulated convergence seconds."""
        return self._mean("convergence_time")

    def mean_updates(self) -> Dict[str, float]:
        """Protocol -> mean update messages during the episode."""
        return self._mean("updates")

    def mean_initial_updates(self) -> Dict[str, float]:
        """Protocol -> mean updates to reach initial convergence."""
        return self._mean("initial_updates")

    def mean_disruption(self) -> Dict[str, float]:
        """Protocol -> mean data-plane disruption seconds."""
        return self._mean("disruption_duration")

    def n_phases(self) -> int:
        """Number of comparable phases per episode.

        The packaged builders produce uniform phase counts; should a
        custom family vary (e.g. a degenerate instance), aggregation
        covers the common prefix rather than raising.
        """
        counts = [
            len(run.phases) for runs in self.runs.values() for run in runs
        ]
        return min(counts) if counts else 0

    def mean_affected_by_phase(self) -> Dict[str, List[float]]:
        """Protocol -> per-phase mean affected-AS counts.

        Phase ``k``'s value averages the *phase-scoped* reports (each
        re-evaluates eligibility at its injection instant), so the
        series shows which event of the episode did the damage.
        """
        return {
            protocol: [
                statistics.fmean(run.phases[k].report.affected_count for run in runs)
                for k in range(self.n_phases())
            ]
            for protocol, runs in self.runs.items()
            if runs
        }


@dataclass(frozen=True)
class ParallelRunner:
    """Fans (instance, protocol) work units over a supervised pool.

    This is the one declaration of the execution settings (the CLI's
    flags and the service's spec fields fill it, the
    :class:`~repro.experiments.supervisor.Supervisor` is handed its
    values).  None of them can change the *value* of any result — units
    are pure and the merge canonical — only whether and where a result
    gets computed.
    """

    #: Worker processes requested; fewer than two runs in-process.
    workers: int = 1
    #: Total attempts per unit before it is a terminal failure.
    max_attempts: int = 2
    #: Per-attempt wall-clock limit in seconds (``None``: no limit);
    #: enforceable for pooled attempts only.
    unit_timeout: Optional[float] = None
    #: Retry ``k`` (1-based) waits ``backoff_base * 2**(k-1)`` seconds.
    backoff_base: float = 0.5
    #: A path: the ledger is opened (and read) for each run and closed
    #: after it — the CLI's case.  An open
    #: :class:`~repro.experiments.ledger.ResultLedger`: borrowed — caught
    #: up with other writers before each run, never closed — which is
    #: how the service keeps one for its lifetime.
    ledger: Optional[Union[str, Path, ResultLedger]] = None
    #: Shared machine-wide worker budget.  When set, ``workers`` is a
    #: request: the supervisor acquires up to that many slots from the
    #: budget and may be granted fewer under contention (see
    #: :class:`~repro.experiments.supervisor.WorkerBudget`).
    budget: Optional[WorkerBudget] = None

    def run_units_supervised(
        self,
        graph: ASGraph,
        units: Sequence[WorkUnit],
        *,
        stop_event=None,
        on_progress=None,
    ) -> SupervisedOutcome:
        """Run all units under supervision; never raises for unit faults.

        The returned outcome's ``results`` list matches the unit order
        (``None`` for terminal failures, which are classified in
        ``failures``).  ``stop_event`` (a ``threading.Event``) requests
        a cooperative stop from another thread — dispatch halts,
        in-flight units drain to the results and the ledger, and the
        outcome comes back partial with ``stopped=True``.
        ``on_progress`` is called as ``on_progress(resolved, total)``
        after the ledger preload and every unit resolution.
        """
        units = list(units)
        ledger = opened = keys = None
        if self.ledger is not None:
            ledger = self.ledger
            if not isinstance(ledger, ResultLedger):
                ledger = opened = ResultLedger(ledger)
            graph_hash = graph_content_hash(graph)
            keys = [
                unit_key(graph_hash, builder, kind, seed, instance, protocol)
                for builder, kind, seed, instance, protocol in units
            ]
        try:
            supervisor = Supervisor(
                graph,
                units,
                workers=self.workers,
                max_attempts=self.max_attempts,
                unit_timeout=self.unit_timeout,
                backoff_base=self.backoff_base,
                ledger=ledger,
                unit_keys=keys,
                stop_event=stop_event,
                on_progress=on_progress,
                budget=self.budget,
            )
            return supervisor.run()
        finally:
            if opened is not None:
                opened.close()

    def run_failure_comparison(
        self,
        builder: Callable,
        kind: str,
        seed: int,
        n_instances: int,
        protocols: Sequence[str],
        graph: ASGraph,
        *,
        stop_event=None,
        on_progress=None,
    ) -> FailureFigureData:
        """All (instance, protocol) runs of one figure or campaign.

        The one call every front end makes.  ``runs`` holds
        ``{protocol: [run per instance, in instance order]}`` — the
        canonical merge order.  Terminally failed units are reported in
        ``failures`` instead of poisoning the sweep.
        """
        units: List[WorkUnit] = [
            (builder, kind, seed, instance, protocol)
            for instance in range(n_instances)
            for protocol in protocols
        ]
        outcome = self.run_units_supervised(
            graph, units, stop_event=stop_event, on_progress=on_progress
        )
        runs: Dict[str, List[EpisodeRun]] = {p: [] for p in protocols}
        for (_, _, _, _, protocol), run in zip(units, outcome.results):
            if run is not None:
                runs[protocol].append(run)
        return FailureFigureData(
            scenario_kind=kind,
            runs=runs,
            failures=outcome.failures,
            executed=outcome.executed,
            ledger_hits=outcome.ledger_hits,
            stopped=outcome.stopped,
        )
