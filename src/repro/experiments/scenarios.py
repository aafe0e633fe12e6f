"""Failure workloads: timed episodes, single-instant or multi-phase.

There is one workload model.  An :class:`Episode` is an ordered tuple
of ``(time_offset, event)`` steps, each failing or restoring a link or
failing an AS (a failed AS stays failed, as in the paper), injected
*mid-run* by the engine-scheduled injector of
:func:`repro.experiments.runner.run_episode`.  Every builder draws its
instance from a seeded RNG.

* The paper's evaluation (section 6.2) applies every event at one
  instant, right after initial convergence — a *one-phase* episode
  whose steps all sit at offset ``0.0``:

  - :func:`single_provider_link_failure` — Figure 2: a multi-homed
    destination fails one provider link;
  - :func:`two_link_failures_distinct_as` — Figure 3(a): additionally,
    a random *indirect* provider link (multi-hop away) fails
    simultaneously;
  - :func:`two_link_failures_same_as` — Figure 3(b): the destination
    fails a provider link and that same provider fails one of its own
    provider links;
  - :func:`provider_node_failure` — text: a single AS (node) failure;
  - :func:`link_recovery` — Lemma 3.1 sanity: a link recovery (route
    addition event).

* The multi-phase builder expresses what a single instant cannot, a
  link flap (fail → recover → re-fail):

  - :func:`link_flap_episode` — a provider link flaps N times.

The families a front end can run by name are the entries of
:data:`CAMPAIGNS`, at the end of this module.

See ``docs/scenarios.md`` for the full event model and the exact
timing/determinism rules.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.topology.graph import ASGraph
from repro.types import ASN, Link


class EventKind(Enum):
    """What one episode event does to the network."""

    LINK_FAIL = "link_fail"
    LINK_RESTORE = "link_restore"
    AS_FAIL = "as_fail"


_LINK_KINDS = frozenset({EventKind.LINK_FAIL, EventKind.LINK_RESTORE})


@dataclass(frozen=True)
class EpisodeEvent:
    """One atomic routing event: fail or restore one link, or fail an AS.

    Use the factories :func:`fail_link`, :func:`restore_link` and
    :func:`fail_as` instead of constructing directly; link events
    carry ``link`` and AS events carry ``asn``.
    """

    kind: EventKind
    link: Optional[Link] = None
    asn: Optional[ASN] = None

    def __post_init__(self) -> None:
        if self.kind in _LINK_KINDS:
            if self.link is None or self.asn is not None:
                raise ConfigurationError(
                    f"{self.kind.value} event must carry a link and no AS"
                )
        else:
            if self.asn is None or self.link is not None:
                raise ConfigurationError(
                    f"{self.kind.value} event must carry an AS and no link"
                )


def fail_link(a: ASN, b: ASN) -> EpisodeEvent:
    """Event: the a-b link fails."""
    return EpisodeEvent(kind=EventKind.LINK_FAIL, link=(a, b))


def restore_link(a: ASN, b: ASN) -> EpisodeEvent:
    """Event: the a-b link comes back up (sessions re-establish)."""
    return EpisodeEvent(kind=EventKind.LINK_RESTORE, link=(a, b))


def fail_as(asn: ASN) -> EpisodeEvent:
    """Event: an entire AS fails (all of its sessions reset)."""
    return EpisodeEvent(kind=EventKind.AS_FAIL, asn=asn)


@dataclass(frozen=True)
class Episode:
    """A timed, multi-phase failure episode for one destination prefix.

    ``steps`` is an ordered tuple of ``(time_offset, event)`` pairs;
    offsets are simulated seconds *after initial convergence* and must
    be non-negative and non-decreasing.  Steps sharing one offset are
    applied at the same instant, in tuple order, and form one *phase*
    of the episode (see :meth:`instants`).

    ``pre_failed_links`` start out failed before initial convergence,
    so a later ``restore_link`` step can model recovery of a link the
    network never converged over.  Because they shape the *initial*
    convergence, they are part of the R-BGP twin-start cache key (see
    :func:`repro.experiments.runner.run_episode`).
    """

    destination: ASN
    steps: Tuple[Tuple[float, EpisodeEvent], ...] = ()
    pre_failed_links: Tuple[Link, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        previous = 0.0
        for offset, event in self.steps:
            if offset < 0:
                raise ConfigurationError(
                    f"episode step offset {offset} is negative"
                )
            if offset < previous:
                raise ConfigurationError(
                    "episode steps must be ordered by non-decreasing offset"
                )
            if not isinstance(event, EpisodeEvent):
                raise ConfigurationError(
                    f"episode step carries a non-event: {event!r}"
                )
            previous = offset

    def instants(
        self,
    ) -> List[Tuple[float, Tuple[int, ...], Tuple[EpisodeEvent, ...]]]:
        """Steps grouped by injection instant.

        Returns ``[(offset, step_indices, events), ...]`` — one entry
        per distinct offset, preserving step order within an instant.
        Each entry is one *phase* of the episode: the runner injects
        its events atomically and the analyzer attributes disruption to
        it separately.
        """
        grouped: List[Tuple[float, List[int], List[EpisodeEvent]]] = []
        for index, (offset, event) in enumerate(self.steps):
            if grouped and grouped[-1][0] == offset:
                grouped[-1][1].append(index)
                grouped[-1][2].append(event)
            else:
                grouped.append((offset, [index], [event]))
        return [
            (offset, tuple(indices), tuple(events))
            for offset, indices, events in grouped
        ]


# ----------------------------------------------------------------------
# The paper's single-instant workloads (one-phase episodes)
# ----------------------------------------------------------------------


def _single_instant(
    *,
    destination: ASN,
    description: str,
    failed_links: Tuple[Link, ...] = (),
    failed_ases: Tuple[ASN, ...] = (),
    restored_links: Tuple[Link, ...] = (),
) -> Episode:
    """A one-phase episode: the paper's single-instant workload shape.

    Every event lands at offset ``0.0`` — the instant right after the
    converged network's trace is cleared — and the ordering rule lives
    here alone: ``failed_links`` fail, then ``failed_ases`` fail, then
    ``restored_links`` are restored, synchronously, with no simulated
    time between them.  A restored link must have been down to begin
    with, so ``restored_links`` are also the episode's
    ``pre_failed_links`` (failed *before* initial convergence).
    """
    events = (
        [fail_link(a, b) for a, b in failed_links]
        + [fail_as(asn) for asn in failed_ases]
        + [restore_link(a, b) for a, b in restored_links]
    )
    return Episode(
        destination=destination,
        steps=tuple((0.0, event) for event in events),
        pre_failed_links=restored_links,
        description=description,
    )


def _multihomed_candidates(graph: ASGraph) -> List[ASN]:
    return [asn for asn in graph.ases if graph.is_multihomed(asn)]


def _pick_multihomed(graph: ASGraph, rng: random.Random) -> ASN:
    candidates = _multihomed_candidates(graph)
    if not candidates:
        raise ConfigurationError("graph has no multi-homed AS")
    return rng.choice(candidates)


def single_provider_link_failure(graph: ASGraph, rng: random.Random) -> Episode:
    """Figure 2: a multi-homed destination loses one provider link."""
    destination = _pick_multihomed(graph, rng)
    provider = rng.choice(graph.providers(destination))
    return _single_instant(
        destination=destination,
        failed_links=((destination, provider),),
        description=f"single provider-link failure {destination}-{provider}",
    )


def _uphill_cone(graph: ASGraph, start: ASN) -> Set[ASN]:
    """All direct and indirect providers of an AS (excluding itself)."""
    cone: Set[ASN] = set()
    stack = list(graph.providers(start))
    while stack:
        node = stack.pop()
        if node in cone:
            continue
        cone.add(node)
        stack.extend(graph.providers(node))
    return cone


def two_link_failures_distinct_as(
    graph: ASGraph, rng: random.Random
) -> Episode:
    """Figure 3(a): provider link + an indirect provider link elsewhere.

    The second failed link is a c2p link in the destination's uphill
    cone that shares no endpoint with the first failed link and is not
    adjacent to the destination.
    """
    destination = _pick_multihomed(graph, rng)
    provider = rng.choice(graph.providers(destination))
    first = (destination, provider)
    # "Multi-hop away": the second link must not touch the destination
    # or any of its direct providers (a provider-adjacent second
    # failure is Figure 3(b)'s same-AS case, not this one).
    nearby = {destination, *graph.providers(destination)}
    cone = _uphill_cone(graph, destination)
    candidates = [
        (customer, upper)
        for customer in sorted(cone)
        for upper in graph.providers(customer)
        if customer not in nearby and upper not in nearby
    ]
    if not candidates:
        # Degenerate graphs: fall back to a single failure.
        return _single_instant(
            destination=destination,
            failed_links=(first,),
            description="two-link (distinct AS) degenerated to single",
        )
    second = rng.choice(candidates)
    return _single_instant(
        destination=destination,
        failed_links=(first, second),
        description=(
            f"two links at distinct ASes: {first[0]}-{first[1]} and "
            f"{second[0]}-{second[1]}"
        ),
    )


def two_link_failures_same_as(graph: ASGraph, rng: random.Random) -> Episode:
    """Figure 3(b): destination-provider link + that provider's own
    provider link — both failures touch the same AS."""
    destination = _pick_multihomed(graph, rng)
    providers_with_uplinks = [
        p for p in graph.providers(destination) if graph.providers(p)
    ]
    if not providers_with_uplinks:
        provider = rng.choice(graph.providers(destination))
        return _single_instant(
            destination=destination,
            failed_links=((destination, provider),),
            description="two-link (same AS) degenerated to single",
        )
    provider = rng.choice(providers_with_uplinks)
    upper = rng.choice(graph.providers(provider))
    return _single_instant(
        destination=destination,
        failed_links=((destination, provider), (provider, upper)),
        description=(
            f"two links at the same AS {provider}: "
            f"{destination}-{provider} and {provider}-{upper}"
        ),
    )


def provider_node_failure(graph: ASGraph, rng: random.Random) -> Episode:
    """Section 6.2.2 text: one of the destination's providers fails
    entirely (withdraws from all neighbors)."""
    destination = _pick_multihomed(graph, rng)
    provider = rng.choice(graph.providers(destination))
    return _single_instant(
        destination=destination,
        failed_ases=(provider,),
        description=f"node failure of provider {provider}",
    )


def link_recovery(graph: ASGraph, rng: random.Random) -> Episode:
    """Route addition event (Lemma 3.1): a provider link comes back.

    The link is among the episode's ``pre_failed_links`` — the runner
    fails it before initial convergence — and its restoration is the
    episode's one event.
    """
    destination = _pick_multihomed(graph, rng)
    provider = rng.choice(graph.providers(destination))
    return _single_instant(
        destination=destination,
        restored_links=((destination, provider),),
        description=f"recovery of provider link {destination}-{provider}",
    )


# ----------------------------------------------------------------------
# The multi-phase builder
# ----------------------------------------------------------------------


def link_flap_episode(
    graph: ASGraph,
    rng: random.Random,
    *,
    period: float = 40.0,
    flaps: int = 2,
) -> Episode:
    """A multi-homed destination's provider link flaps ``flaps`` times.

    The link fails at offset 0, recovers ``period`` seconds later,
    re-fails after another ``period``, and so on — ``2 * flaps`` phases
    in total, ending restored.  With the default 30 s MRAI, a period of
    ~40 s gives the network time to partially (but not always fully)
    converge between events, which is exactly the regime where a flap
    compounds transient disruption.
    """
    if flaps < 1:
        raise ConfigurationError("a flap episode needs at least one flap")
    if period <= 0:
        raise ConfigurationError("flap period must be positive")
    if not math.isfinite((2 * flaps - 1) * period):
        # An infinite offset merges every later phase into one instant.
        raise ConfigurationError("flap period must keep every offset finite")
    destination = _pick_multihomed(graph, rng)
    provider = rng.choice(graph.providers(destination))
    steps: List[Tuple[float, EpisodeEvent]] = []
    offset = 0.0
    for _ in range(flaps):
        steps.append((offset, fail_link(destination, provider)))
        offset += period
        steps.append((offset, restore_link(destination, provider)))
        offset += period
    return Episode(
        destination=destination,
        steps=tuple(steps),
        description=(
            f"provider link {destination}-{provider} flaps {flaps}x "
            f"(period {period}s)"
        ),
    )


# ----------------------------------------------------------------------
# The campaign catalogue
# ----------------------------------------------------------------------

EpisodeBuilder = Callable[[ASGraph, random.Random], Episode]


@dataclass(frozen=True)
class CampaignKind:
    """One campaign family, as every front end sees it: the CLI's
    subcommands, the service's spec ``kind`` and the packaged figure
    functions of :mod:`repro.experiments.figures` all read
    :data:`CAMPAIGNS`, so a family reaches all of them by gaining an
    entry there.  It lives beside the builders it names, in a module
    that imports no execution stack: a front end can list the families
    (``repro-stamp --help``) without loading what runs them."""

    #: Module-level (ledger keys name it by import path).
    builder: EpisodeBuilder
    #: Seeds every instance's RNG (``f"{seed}:{kind}:{instance}"``) and
    #: enters every ledger key: written here and nowhere else, or the
    #: front ends stop sharing a ledger.
    unit_kind: str
    #: Chart title; a ``str.format`` template over ``params``.
    title: str
    #: Builder keywords a front end may set -> help text (a template
    #: over ``default``).  The defaults are the builder's own.
    params: Tuple[Tuple[str, str], ...] = ()
    #: What the phases are, for the per-phase table; ``None`` for a
    #: one-phase family, which reports no such table.
    phase_legend: Optional[str] = None

    def defaults(self) -> Dict[str, Any]:
        """Settable builder keyword -> the builder's default for it."""
        signature = inspect.signature(self.builder).parameters
        return {name: signature[name].default for name, _ in self.params}

    def bind(self, **params: Any) -> EpisodeBuilder:
        """The builder with every settable keyword bound — even at its
        default: the bound values are part of the ledger key."""
        defaults = self.defaults()
        if not params.keys() <= defaults.keys():
            raise TypeError(
                f"{self.unit_kind} campaigns take {sorted(defaults)}, "
                f"not {sorted(params.keys() - defaults.keys())}"
            )
        if not defaults:
            return self.builder
        return functools.partial(self.builder, **{**defaults, **params})


#: Front-end name -> family, in CLI display order.  ``flap`` is the
#: episode-model counterpart of Figure 2: the same single-link
#: population, but the link fails, partially recovers and re-fails —
#: churn *during* convergence rather than after a clean event.
CAMPAIGNS: Dict[str, CampaignKind] = {
    "fig2": CampaignKind(
        single_provider_link_failure,
        "fig2-single-link",
        "Figure 2: single provider-link failure (mean affected ASes)",
    ),
    "fig3a": CampaignKind(
        two_link_failures_distinct_as,
        "fig3a-distinct-as",
        "Figure 3(a): two failed links at distinct ASes",
    ),
    "fig3b": CampaignKind(
        two_link_failures_same_as,
        "fig3b-same-as",
        "Figure 3(b): two failed links at the same AS",
    ),
    "node-failure": CampaignKind(
        provider_node_failure, "node-failure", "Single node (AS) failure"
    ),
    "flap": CampaignKind(
        link_flap_episode,
        "link-flap",
        "Link-flap campaign ({flaps} flap(s), period {period:g}s): "
        "episode-wide mean affected ASes",
        params=(
            ("period",
             "seconds between a failure and the next restore "
             "(default {default:g}: partial convergence under a 30s MRAI)"),
            ("flaps", "number of fail/restore cycles (2*flaps phases)"),
        ),
        phase_legend="even phases fail the link, odd phases restore it",
    ),
}
