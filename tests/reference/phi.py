"""Unmemoized, per-path-DFS Φ: the memoized Φ's twin.

:func:`repro.analysis.phi.phi_distribution` runs every per-anchor
question on one precomputed uphill view and memoizes per anchor; these
functions answer destination by destination with a DFS over the full
graph per uphill path, the behavior the equivalence tests pin the
optimized Φ to.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.analysis.phi import PhiResult, _phi_anchor, uphill_paths_to_tier1
from repro.topology.graph import ASGraph
from repro.types import ASN


def _reference_disjoint_alternative_exists(
    graph: ASGraph, start: ASN, blocked: Set[ASN]
) -> bool:
    """Per-path DFS over the full graph (pre-optimization behavior)."""
    seen: Set[ASN] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for provider in graph.providers(node):
            if provider in blocked or provider in seen:
                continue
            if graph.is_tier1(provider):
                return True
            stack.append(provider)
    return False


def _reference_phi_for_destination(
    graph: ASGraph, destination: ASN, *, max_paths: int = 100_000
) -> PhiResult:
    """Unmemoized, per-path-DFS Φ (pre-optimization behavior)."""
    anchor = _phi_anchor(graph, destination)
    if anchor is None:
        if graph.is_tier1(destination):
            return PhiResult(destination, 1.0, 0, 0, None)
        return PhiResult(destination, 0.0, 0, 0, None)
    paths, capped = uphill_paths_to_tier1(graph, anchor, max_paths=max_paths)
    if not paths:
        return PhiResult(destination, 0.0, 0, 0, anchor, capped)
    good = 0
    for path in paths:
        blocked = set(path) - {anchor}
        if _reference_disjoint_alternative_exists(graph, anchor, blocked):
            good += 1
    return PhiResult(
        destination, good / len(paths), len(paths), good, anchor, capped
    )


def _reference_phi_distribution(
    graph: ASGraph,
    destinations: Optional[Sequence[ASN]] = None,
    *,
    max_paths: int = 100_000,
) -> List[PhiResult]:
    """Destination-by-destination Φ with no anchor sharing."""
    dests = list(destinations) if destinations is not None else graph.ases
    return [
        _reference_phi_for_destination(graph, dest, max_paths=max_paths)
        for dest in dests
    ]
