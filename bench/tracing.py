"""Outside-in tracing: spans around the calls into each layer.

The program is not edited.  One table (:data:`TARGETS`) names the
public callables at each layer boundary — patched where the name is
looked up — and :func:`install` replaces each with a wrapper that
records a span (name, start, end, parent, unit id, counter deltas at
the same boundary).  Spans stay in memory until the pass ends.
:func:`layer_metrics` turns a finished span list into the per-layer
numbers: a layer's self time is its span minus the part its child
spans cover.

What cannot be taken from outside — the split *inside* a
``run_to_convergence`` (engine dispatch vs transport vs decision vs
export vs STAMP gate) — waits for in-program counters.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

PLANES: Tuple[str, ...] = ("bgp", "rbgp-norci", "rbgp", "stamp")
_RBGP_FAMILY = frozenset({"rbgp", "rbgp-norci"})


class TraceTargetError(RuntimeError):
    """A wrapper target named in :data:`TARGETS` does not exist."""


class Span:
    """One timed call across a layer boundary."""

    __slots__ = ("index", "name", "parent", "start", "end", "unit", "counters", "payload")

    def __init__(
        self, index: int, name: str, parent: Optional[int], start: float,
        end: Optional[float] = None,
    ) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start if end is None else end
        #: (kind, seed, instance, protocol) of the enclosing unit, if any.
        self.unit: Optional[Tuple[str, int, int, str]] = None
        self.counters: Dict[str, int] = {}
        #: The call's return value where a hook kept it (never written out).
        self.payload: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end,
            "unit": list(self.unit) if self.unit else None,
            "counters": self.counters,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Span":
        span = cls(doc["index"], doc["name"], doc["parent"], doc["start"], doc["end"])
        span.unit = tuple(doc["unit"]) if doc["unit"] else None
        span.counters = dict(doc["counters"])
        return span


class Tracer:
    """In-memory span store with one nesting stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                len(self.spans), name,
                parent.index if parent is not None else None,
                time.perf_counter(),
            )
            self.spans.append(span)
        if parent is not None:
            span.unit = parent.unit
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an already-finished top-level interval."""
        with self._lock:
            span = Span(len(self.spans), name, None, start, end)
            self.spans.append(span)
        return span


# ----------------------------------------------------------------------
# Boundary hooks: unit identity and counter deltas
# ----------------------------------------------------------------------


def _enter_unit(span: Span, args, kwargs) -> None:
    # run_unit(graph, builder, kind, seed, instance, protocol)
    span.unit = (args[2], args[3], args[4], args[5])


def _enter_run(span: Span, args, kwargs) -> None:
    network = args[0]
    span.counters["events"] = -network.engine.events_processed
    span.counters["messages"] = -network.transport.messages_sent


def _leave_run(span: Span, args, kwargs, result) -> None:
    network = args[0]
    span.counters["events"] += network.engine.events_processed
    span.counters["messages"] += network.transport.messages_sent


def _enter_analysis(span: Span, args, kwargs) -> None:
    span.counters["changes"] = len(args[0].changes)
    span.counters["phases"] = 1


def _enter_episode_analysis(span: Span, args, kwargs) -> None:
    segments = args[0]
    span.counters["changes"] = sum(len(s.trace.changes) for s in segments)
    span.counters["phases"] = len(segments)


def _leave_campaign(span: Span, args, kwargs, result) -> None:
    # Kept for the statistics digest: a speed-up that moves a simulated
    # number must not pass.
    span.payload = result
    span.counters["failures"] = len(result.failures)
    span.counters["executed"] = result.executed
    span.counters["ledger_hits"] = result.ledger_hits


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it is looked up, and its span name."""

    module: str
    #: ``name`` of a module attribute, or ``Class.method``.
    attribute: str
    span: str
    enter: Optional[Callable] = None
    leave: Optional[Callable] = None


#: Every layer boundary the trace records.  A name imported with
#: ``from x import f`` is patched in the importing module — that is
#: where the call looks it up.
TARGETS: Tuple[Target, ...] = (
    # topology
    Target("repro.experiments.figures", "generate_internet_topology", "topology.generate"),
    Target("repro.service.app", "generate_internet_topology", "topology.generate"),
    Target("repro.cli", "generate_internet_topology", "topology.generate"),
    Target("repro.cli", "load_caida", "topology.load"),
    Target("repro.experiments.parallel", "graph_content_hash", "topology.graph_hash"),
    Target("repro.topology.shm", "share_graph", "topology.shm_share"),
    # protocol planes: construction
    Target("repro.experiments.runner", "build_network", "plane.build"),
    # sim + speakers
    Target("repro.bgp.network", "BGPNetwork.start", "sim.start"),
    Target("repro.stamp.network", "STAMPNetwork.start", "sim.start"),
    Target("repro.bgp.network", "BGPNetwork.run_to_convergence", "sim.run",
           _enter_run, _leave_run),
    Target("repro.stamp.network", "STAMPNetwork.run_to_convergence", "sim.run",
           _enter_run, _leave_run),
    # analysis + forwarding
    Target("repro.experiments.runner", "analyze_transient_problems",
           "analysis.transient", _enter_analysis),
    Target("repro.experiments.runner", "analyze_episode_transient_problems",
           "analysis.transient", _enter_episode_analysis),
    # experiments: unit, campaign, ledger, keys
    Target("repro.experiments.supervisor", "run_unit", "experiments.unit", _enter_unit),
    Target("repro.experiments.parallel", "ParallelRunner.run_failure_comparison",
           "experiments.campaign", None, _leave_campaign),
    Target("repro.experiments.parallel", "unit_key", "experiments.unit_key"),
    Target("repro.experiments.ledger", "ResultLedger.load", "experiments.ledger_load"),
    Target("repro.experiments.ledger", "ResultLedger.put", "experiments.ledger_put"),
    Target("repro.experiments.ledger", "ResultLedger.get", "experiments.ledger_get"),
    # service
    Target("repro.service.spec", "CampaignSpec.parse", "service.spec_parse"),
    Target("repro.service.journal", "CampaignJournal.append", "service.journal_append"),
    Target("repro.service.journal", "CampaignJournal.replay", "service.journal_replay"),
    Target("repro.service.app", "CampaignService.submit", "service.submit"),
)


def _resolve(target: Target):
    """``(owner, name, raw attribute)`` of a target; loud when missing."""
    try:
        owner: Any = importlib.import_module(target.module)
        *path, name = target.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[name]
    except (ImportError, AttributeError, KeyError) as exc:
        raise TraceTargetError(
            f"trace target {target.module}:{target.attribute} is missing ({exc!r})"
        ) from exc
    return owner, name, raw


def _traced(tracer: Tracer, function: Callable, target: Target) -> Callable:
    name, enter, leave = target.span, target.enter, target.leave

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            if enter is not None:
                enter(span, args, kwargs)
            result = function(*args, **kwargs)
            if leave is not None:
                leave(span, args, kwargs, result)
            return result
        finally:
            tracer.end(span)

    return wrapper


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns what :func:`remove` needs to undo it."""
    resolved = [(target, *_resolve(target)) for target in TARGETS]
    installed: List[Tuple[Any, str, Any]] = []
    for target, owner, name, raw in resolved:
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_traced(tracer, raw.__func__, target))
        else:
            wrapped = _traced(tracer, raw, target)
        setattr(owner, name, wrapped)
        installed.append((owner, name, raw))
    return installed


def remove(installed: Sequence[Tuple[Any, str, Any]]) -> None:
    """Put every wrapped attribute back — the identical original object."""
    for owner, name, raw in reversed(installed):
        setattr(owner, name, raw)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span index -> duration minus the part its child spans cover.

    Children of one span run on the parent's thread, one after the
    other, so the part they cover is the sum of their durations.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.index: span.duration - covered.get(span.index, 0.0) for span in spans}


#: Per-call metrics: name -> (span, unit scale); the median call.
_PER_CALL = {
    "experiments.ledger_put_us": ("experiments.ledger_put", 1e6),
    "experiments.ledger_get_us": ("experiments.ledger_get", 1e6),
    "experiments.ledger_load_ms": ("experiments.ledger_load", 1e3),
    "experiments.unit_key_us": ("experiments.unit_key", 1e6),
    "topology.load_ms": ("topology.load", 1e3),
    "topology.graph_hash_ms": ("topology.graph_hash", 1e3),
    "topology.shm_share_ms": ("topology.shm_share", 1e3),
    "service.spec_parse_us": ("service.spec_parse", 1e6),
    "service.journal_append_us": ("service.journal_append", 1e6),
    "service.submit_inproc_us": ("service.submit", 1e6),
}
#: Per-plane sums, in the order they are reported.
_PER_PLANE = (
    "plane.build_s", "sim.converge_s", "sim.react_s", "sim.events",
    "sim.messages", "analysis.transient_s", "analysis.trace_changes",
)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    Names ending ``_s`` are totals over the pass; ``_us``/``_ms`` are
    medians per call; counts repeat exactly for a given input.  A layer
    the pass never entered reads 0.
    """
    by_index = {span.index: span for span in spans}
    own = self_times(spans)
    durations: Dict[str, List[float]] = {}
    sums: Dict[Tuple[str, str], float] = collections.defaultdict(float)
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
        if span.unit is None:
            continue
        plane = span.unit[3]
        if span.name == "plane.build":
            sums["plane.build_s", plane] += span.duration
        elif span.name == "sim.start":
            sums["sim.converge_s", plane] += span.duration
        elif span.name == "sim.run":
            sums["sim.events", plane] += span.counters["events"]
            sums["sim.messages", plane] += span.counters["messages"]
            parent = by_index.get(span.parent)
            # A run_to_convergence whose parent is start() is initial
            # convergence; any other is reaction.
            if parent is None or parent.name != "sim.start":
                sums["sim.react_s", plane] += span.duration
        elif span.name == "analysis.transient":
            sums["analysis.transient_s", plane] += span.duration
            sums["analysis.trace_changes", plane] += span.counters["changes"]

    metrics: Dict[str, float] = {}
    for plane in PLANES:
        for stem in _PER_PLANE:
            metrics[f"{stem}.{plane}"] = sums[stem, plane]
        events = sums["sim.events", plane]
        simulated = sums["sim.converge_s", plane] + sums["sim.react_s", plane]
        metrics[f"sim.us_per_event.{plane}"] = (
            simulated / events * 1e6 if events else 0.0
        )
        changes = sums["analysis.trace_changes", plane]
        metrics[f"analysis.us_per_change.{plane}"] = (
            sums["analysis.transient_s", plane] / changes * 1e6 if changes else 0.0
        )
    metrics["analysis.phases"] = sum(
        span.counters["phases"] for span in spans if span.name == "analysis.transient"
    )

    unit_spans = [span for span in spans if span.name == "experiments.unit"]
    campaigns = [span for span in spans if span.name == "experiments.campaign"]
    started = {
        _enclosing(span, by_index, "experiments.unit")
        for span in spans if span.name == "sim.start"
    }
    metrics["experiments.unit_self_s"] = sum(own[s.index] for s in unit_spans)
    metrics["experiments.campaign_self_s"] = sum(own[s.index] for s in campaigns)
    metrics["experiments.units"] = len({span.unit for span in unit_spans})
    metrics["experiments.twin_restores"] = sum(
        1 for span in unit_spans
        if span.unit[3] in _RBGP_FAMILY and span.index not in started
    )
    metrics["experiments.unit_retries"] = (
        len(unit_spans) - metrics["experiments.units"]
    )
    metrics["experiments.unit_failures"] = sum(
        span.counters.get("failures", 0) for span in campaigns
    )
    metrics["topology.generate_s"] = sum(durations.get("topology.generate", ()))
    for metric, (name, scale) in _PER_CALL.items():
        calls = durations.get(name)
        metrics[metric] = statistics.median(calls) * scale if calls else 0.0
    # The replay that matters is the restart's, over the full journal;
    # the first start replays an empty file.
    replays = durations.get("service.journal_replay", [])
    metrics["service.journal_replay_ms"] = max(replays) * 1e3 if replays else 0.0
    return metrics


def _enclosing(span: Span, by_index: Dict[int, Span], name: str) -> Optional[int]:
    """Index of the nearest ancestor span called ``name``, if any."""
    current = by_index.get(span.parent)
    while current is not None and current.name != name:
        current = by_index.get(current.parent)
    return current.index if current is not None else None


def covered_time(spans: Sequence[Span]) -> float:
    """Sum of every span's self time — the wall the layers account for.

    (Self times telescope, so this is the top-level spans' durations.)
    """
    return sum(span.duration for span in spans if span.parent is None)
