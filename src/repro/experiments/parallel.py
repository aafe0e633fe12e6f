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

``workers <= 1`` runs the identical unit loop in-process (with the
same retry accounting); the pool is also skipped for single-unit
grids, and environments that cannot spawn processes degrade to the
in-process loop with a logged warning.

With ``ledger`` set, every completed unit is appended to a crash-safe
:class:`~repro.experiments.ledger.ResultLedger` keyed by its canonical
input hash, and units already present are answered from disk —
interrupted or overlapping sweeps recompute only never-seen units (see
``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import CampaignError
from repro.experiments.canonical import graph_content_hash, unit_key
from repro.experiments.ledger import ResultLedger
from repro.experiments.runner import EpisodeRun
from repro.experiments.supervisor import (
    RetryPolicy,
    Supervisor,
    SupervisedOutcome,
    UnitFailure,
    WorkerBudget,
    WorkUnit,
    _cyclic_gc_paused,
    run_unit,
)
from repro.topology.graph import ASGraph

__all__ = [
    "CampaignOutcome",
    "ParallelRunner",
    "WorkerBudget",
    "WorkUnit",
    "run_unit",
]


@dataclass
class CampaignOutcome:
    """Merged results of one campaign grid, plus its failure report.

    ``runs`` maps protocol to the per-instance run list in canonical
    instance order; a terminally failed unit is *omitted* from its
    protocol's list (so per-protocol lists may be shorter than the
    instance count) and described in ``failures``.  ``executed`` and
    ``ledger_hits`` expose how much work the sweep actually paid for.
    """

    runs: Dict[str, List[EpisodeRun]]
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


@dataclass(frozen=True)
class ParallelRunner:
    """Fans (instance, protocol) work units over a supervised pool.

    ``max_attempts``/``unit_timeout``/``backoff_base``/``backoff_factor``
    /``degrade_final`` configure the
    :class:`~repro.experiments.supervisor.RetryPolicy`; ``ledger``
    enables the crash-safe result ledger.  None of them can change the
    *value* of any result — units are pure and the merge canonical —
    only whether and where a result gets computed.
    """

    workers: int = 1
    max_attempts: int = 2
    unit_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    degrade_final: bool = False
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

    def _policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            unit_timeout=self.unit_timeout,
            backoff_base=self.backoff_base,
            backoff_factor=self.backoff_factor,
            degrade_final=self.degrade_final,
        )

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
                policy=self._policy(),
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

    def run_units(
        self, graph: ASGraph, units: Sequence[WorkUnit]
    ) -> List[EpisodeRun]:
        """Run all units; the result list matches the unit order.

        Raises :class:`~repro.errors.CampaignError` (carrying the
        partial results and the failure report) if any unit failed
        terminally — callers that want the partial outcome instead use
        :meth:`run_units_supervised`.
        """
        outcome = self.run_units_supervised(graph, units)
        if outcome.failures:
            raise CampaignError(
                "; ".join(f.describe() for f in outcome.failures),
                outcome=outcome,
            )
        return outcome.results

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
    ) -> CampaignOutcome:
        """All (instance, protocol) runs of one figure or campaign.

        ``runs`` holds ``{protocol: [run per instance, in instance
        order]}`` — the canonical merge order, independent of
        scheduling, retries, and ledger hits.  Terminally failed units
        are reported in ``failures`` instead of poisoning the sweep.
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
        return CampaignOutcome(
            runs=runs,
            failures=outcome.failures,
            executed=outcome.executed,
            ledger_hits=outcome.ledger_hits,
            stopped=outcome.stopped,
        )
