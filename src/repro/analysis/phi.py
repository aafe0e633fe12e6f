"""The paper's disjoint-path probability Φ (section 6.1, Figure 1).

For a multi-homed destination AS *m*, let λ be the number of uphill
paths (provider chains) from *m* to any tier-1 AS.  A path *l* is a
"good" locked blue path if, with the interior of *l* removed, another
uphill path from *m* to a different tier-1 still exists (then STAMP is
guaranteed to find a red path).  With the locked blue provider chosen
uniformly at random, Φ_m = λ'/λ where λ' counts good paths.

Single-homed destinations inherit the Φ of their first multi-homed
direct/indirect provider (footnote 4).  Boundary cases we define (the
paper leaves them implicit):

* a tier-1 destination gets Φ = 1.0 (its prefix floods both colors
  through the fully-peered core; no locked chain is needed);
* a destination whose single-homed chain reaches a tier-1 without ever
  meeting a multi-homed AS gets Φ = 0.0 (no disjoint pair can exist).

Performance: all per-anchor work runs on a single precomputed
uphill-reachability view (restricted provider adjacency + tier-1 flags)
instead of re-querying the graph per DFS step, and
:func:`phi_distribution` memoizes results per anchor — footnote-4
inheritance means hundreds of stub destinations share one anchor's
answer.  The equivalence tests pin both to the unmemoized per-path DFS
in ``tests/reference/phi.py``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.topology.graph import ASGraph
from repro.types import ASN


@dataclass(frozen=True)
class PhiResult:
    """Φ for one destination."""

    destination: ASN
    phi: float
    #: λ — number of uphill tier-1 paths enumerated from the anchor.
    n_paths: int
    #: λ' — number of good locked blue paths.
    n_good: int
    #: The multi-homed AS whose Φ this is (footnote 4); equals the
    #: destination unless it is single-homed.
    anchor: Optional[ASN]
    #: Whether path enumeration hit the cap (Φ is then an estimate).
    capped: bool = False


class UphillView:
    """Uphill-reachable subgraph of one anchor, precomputed once.

    Holds the provider adjacency restricted to ASes reachable from the
    anchor by climbing provider links, plus which of them are tier-1s.
    Every per-path disjointness DFS then runs on plain dict/tuple
    lookups instead of graph queries.
    """

    __slots__ = ("anchor", "providers_of", "tier1s")

    def __init__(self, graph: ASGraph, anchor: ASN) -> None:
        self.anchor = anchor
        self.providers_of: Dict[ASN, Tuple[ASN, ...]] = {}
        self.tier1s: Set[ASN] = set()
        stack = [anchor]
        while stack:
            node = stack.pop()
            if node in self.providers_of:
                continue
            providers = graph.providers(node)
            self.providers_of[node] = providers
            if not providers:
                self.tier1s.add(node)
            stack.extend(p for p in providers if p not in self.providers_of)

    def uphill_paths_to_tier1(
        self, *, max_paths: int = 100_000
    ) -> Tuple[List[Tuple[ASN, ...]], bool]:
        """Enumerate every provider chain from the anchor to a tier-1."""
        if max_paths < 1:
            raise ConfigurationError("max_paths must be positive")
        paths: List[Tuple[ASN, ...]] = []
        capped = False
        providers_of = self.providers_of
        stack: List[Tuple[ASN, Tuple[ASN, ...]]] = [(self.anchor, (self.anchor,))]
        while stack:
            node, path = stack.pop()
            providers = providers_of[node]
            if not providers:
                paths.append(path)
                if len(paths) >= max_paths:
                    capped = True
                    break
                continue
            # The provider hierarchy is acyclic, so no visited-set is
            # needed within one chain.
            for provider in reversed(providers):
                stack.append((provider, path + (provider,)))
        return paths, capped

    def disjoint_alternative_exists(self, blocked: Set[ASN]) -> bool:
        """Uphill reachability of a tier-1 from the anchor avoiding ``blocked``."""
        providers_of = self.providers_of
        tier1s = self.tier1s
        seen: Set[ASN] = set()
        stack = [self.anchor]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for provider in providers_of[node]:
                if provider in blocked or provider in seen:
                    continue
                if provider in tier1s:
                    return True
                stack.append(provider)
        return False


def uphill_paths_to_tier1(
    graph: ASGraph, start: ASN, *, max_paths: int = 100_000
) -> Tuple[List[Tuple[ASN, ...]], bool]:
    """Enumerate every provider chain from ``start`` to a tier-1.

    Returns ``(paths, capped)``; each path starts at ``start`` and ends
    at a tier-1 AS.  Enumeration stops (capped=True) at ``max_paths``.
    """
    return UphillView(graph, start).uphill_paths_to_tier1(max_paths=max_paths)


class UphillViewCache:
    """Cross-call cache of per-anchor uphill views and derived Φ stats.

    One figure drives several Φ entry points (`phi_distribution`,
    `conditional_phi_by_provider`, `phi_with_intelligent_selection`)
    over the same graph, and footnote-4 inheritance funnels hundreds of
    destinations through the same few anchors — without a shared cache
    each entry point rebuilds identical :class:`UphillView`s and
    re-enumerates identical path sets.  Entries are keyed by graph
    *identity* alone (weakly, so graphs can be collected): an entry
    freezes its graph before it is stored, and a frozen graph never
    changes.
    """

    def __init__(self) -> None:
        self._by_graph: "weakref.WeakKeyDictionary[ASGraph, dict]" = (
            weakref.WeakKeyDictionary()
        )

    def clear(self) -> None:
        """Drop every cached view (benchmarks and tests use this)."""
        self._by_graph.clear()

    def _entry(self, graph: ASGraph) -> dict:
        entry = self._by_graph.get(graph)
        if entry is None:
            graph.csr_base()  # freezes the graph the entry is keyed on
            entry = {"views": {}, "phi": {}, "conditional": {}}
            self._by_graph[graph] = entry
        return entry

    def view(self, graph: ASGraph, anchor: ASN) -> UphillView:
        """The anchor's uphill view, built at most once per graph."""
        views = self._entry(graph)["views"]
        view = views.get(anchor)
        if view is None:
            view = views[anchor] = UphillView(graph, anchor)
        return view

    def phi_stats(
        self, graph: ASGraph, anchor: ASN, max_paths: int
    ) -> Tuple[float, int, int, bool]:
        """Memoized ``(phi, n_paths, n_good, capped)`` for one anchor."""
        return self.phi_stats_in_entry(self._entry(graph), graph, anchor, max_paths)

    def phi_stats_in_entry(
        self, entry: dict, graph: ASGraph, anchor: ASN, max_paths: int
    ) -> Tuple[float, int, int, bool]:
        """Like :meth:`phi_stats` with the entry lookup hoisted out.

        ``phi_distribution`` resolves the graph's entry once and then
        runs hundreds of anchors against plain dicts; re-validating the
        weak entry per destination measurably slows the cold path.
        """
        key = (anchor, max_paths)
        stats = entry["phi"].get(key)
        if stats is None:
            views = entry["views"]
            view = views.get(anchor)
            if view is None:
                view = views[anchor] = UphillView(graph, anchor)
            stats = entry["phi"][key] = _phi_from_view(view, max_paths=max_paths)
        return stats

    def conditional_stats(
        self, graph: ASGraph, anchor: ASN, max_paths: int
    ) -> Dict[ASN, Tuple[int, int]]:
        """Memoized per-first-hop (good, total) stats for one anchor."""
        entry = self._entry(graph)
        key = (anchor, max_paths)
        stats = entry["conditional"].get(key)
        if stats is None:
            view = self.view(graph, anchor)
            paths, _ = view.uphill_paths_to_tier1(max_paths=max_paths)
            stats = {}
            for path in paths:
                first_hop = path[1] if len(path) > 1 else None
                if first_hop is None:
                    continue
                blocked = set(path)
                blocked.discard(anchor)
                good = view.disjoint_alternative_exists(blocked)
                hits, total = stats.get(first_hop, (0, 0))
                stats[first_hop] = (hits + (1 if good else 0), total + 1)
            entry["conditional"][key] = stats
        return stats


#: Process-wide cache shared by every Φ entry point (each worker
#: process of a parallel run holds its own).
_UPHILL_CACHE = UphillViewCache()


def _phi_from_view(
    view: UphillView, *, max_paths: int
) -> Tuple[float, int, int, bool]:
    """(phi, n_paths, n_good, capped) of one anchor's uphill view."""
    paths, capped = view.uphill_paths_to_tier1(max_paths=max_paths)
    if not paths:
        return 0.0, 0, 0, capped
    anchor = view.anchor
    good = 0
    for path in paths:
        blocked = set(path)
        blocked.discard(anchor)
        if view.disjoint_alternative_exists(blocked):
            good += 1
    return good / len(paths), len(paths), good, capped


def phi_for_destination(
    graph: ASGraph, destination: ASN, *, max_paths: int = 100_000
) -> PhiResult:
    """Compute Φ for one destination AS."""
    anchor = _phi_anchor(graph, destination)
    if anchor is None:
        if graph.is_tier1(destination):
            return PhiResult(destination, 1.0, 0, 0, None)
        return PhiResult(destination, 0.0, 0, 0, None)
    phi, n_paths, n_good, capped = _UPHILL_CACHE.phi_stats(
        graph, anchor, max_paths
    )
    return PhiResult(destination, phi, n_paths, n_good, anchor, capped)


def _phi_anchor(graph: ASGraph, destination: ASN) -> Optional[ASN]:
    """The multi-homed AS whose Φ the destination inherits.

    Footnote 4: a single-homed destination inherits the disjointness of
    its first multi-homed (indirect) provider.
    """
    if graph.is_multihomed(destination):
        return destination
    return graph.first_multihomed_ancestor(destination)


def phi_distribution(
    graph: ASGraph,
    destinations: Optional[Sequence[ASN]] = None,
    *,
    max_paths: int = 100_000,
) -> List[PhiResult]:
    """Φ for every destination (Figure 1's underlying data).

    Memoized per anchor: single-homed destinations inherit their first
    multi-homed ancestor's Φ (footnote 4), so each anchor's paths are
    enumerated and checked exactly once however many destinations map
    to it — and, via :class:`UphillViewCache`, at most once per *graph*
    across every Φ entry point a figure calls.
    """
    dests = list(destinations) if destinations is not None else graph.ases
    entry = _UPHILL_CACHE._entry(graph)
    results: List[PhiResult] = []
    for dest in dests:
        anchor = _phi_anchor(graph, dest)
        if anchor is None:
            phi = 1.0 if graph.is_tier1(dest) else 0.0
            results.append(PhiResult(dest, phi, 0, 0, None))
            continue
        phi, n_paths, n_good, capped = _UPHILL_CACHE.phi_stats_in_entry(
            entry, graph, anchor, max_paths
        )
        results.append(PhiResult(dest, phi, n_paths, n_good, anchor, capped))
    return results


# ----------------------------------------------------------------------
# Intelligent locked-blue-provider selection (section 6.1)
# ----------------------------------------------------------------------


def conditional_phi_by_provider(
    graph: ASGraph, origin: ASN, *, max_paths: int = 100_000
) -> Dict[ASN, Tuple[int, int]]:
    """Per-first-hop statistics: provider -> (good paths, total paths).

    Conditioning Φ on the origin's first-hop choice: paths through
    provider ``p`` are the locked blue chains possible once the origin
    picks ``p``.
    """
    anchor = _phi_anchor(graph, origin)
    if anchor is None:
        return {}
    # Copy so callers can mutate their result without poisoning the
    # cross-call cache.
    return dict(_UPHILL_CACHE.conditional_stats(graph, anchor, max_paths))


def phi_with_intelligent_selection(
    graph: ASGraph, destination: ASN, *, max_paths: int = 100_000
) -> PhiResult:
    """Φ when the origin picks its locked blue provider intelligently.

    The origin fixes the first hop to the provider with the highest
    conditional good fraction; intermediate ASes still choose randomly,
    so Φ becomes the conditional fraction of that best provider.
    """
    anchor = _phi_anchor(graph, destination)
    if anchor is None:
        return phi_for_destination(graph, destination, max_paths=max_paths)
    stats = conditional_phi_by_provider(graph, anchor, max_paths=max_paths)
    if not stats:
        return phi_for_destination(graph, destination, max_paths=max_paths)
    _, (good, total) = _best_provider(stats)
    return PhiResult(destination, good / total, total, good, anchor)


def _best_provider(
    stats: Dict[ASN, Tuple[int, int]]
) -> Tuple[ASN, Tuple[int, int]]:
    """The ``(provider, (good, total))`` entry with the highest good
    fraction; a tie goes to the lowest ASN."""
    return max(
        stats.items(), key=lambda item: (item[1][0] / item[1][1], -item[0])
    )


def best_blue_provider(
    graph: ASGraph, origin: ASN, *, max_paths: int = 100_000
) -> Optional[ASN]:
    """The origin's best locked-blue-provider choice, or ``None``."""
    stats = conditional_phi_by_provider(graph, origin, max_paths=max_paths)
    if not stats:
        return None
    return _best_provider(stats)[0]
