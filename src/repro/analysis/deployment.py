"""Partial-deployment analysis (paper section 6.3).

The paper reports that deploying STAMP only at tier-1 ASes still gives
about 75% of all ASes two downhill node-disjoint paths to any
destination.  The workshop paper does not spell out the interop model;
we use the natural one (listed with the other departures from the
paper in docs/architecture.md):

* legacy ASes run a single BGP process and announce their prefixes to
  *all* providers normally, so a destination's reachability climbs to
  the tier-1 core over every uphill chain;
* each deployed tier-1 assigns each customer session to its red or
  blue process uniformly at random (the only coordination a tier-1 can
  apply without downstream support);
* an AS then has two downhill node-disjoint paths to destination *d*
  exactly when two node-disjoint uphill chains of *d* enter the core
  over sessions of *different* colors (the fully-peered core connects
  any source's uphill path to both entry points).

The reported number is the probability of that event over random
session colorings, averaged over destinations — a Monte Carlo estimate
with the disjoint-chain-pair set precomputed per destination.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.phi import _phi_anchor, uphill_paths_to_tier1
from repro.topology.graph import ASGraph
from repro.types import ASN


def _disjoint_chain_pairs(
    graph: ASGraph, destination: ASN, *, max_paths: int = 2_000
) -> List[Tuple[Tuple[ASN, ...], Tuple[ASN, ...]]]:
    """All pairs of uphill chains of ``destination`` that are node
    disjoint (except at the destination itself) and end at distinct
    tier-1s."""
    paths, _ = uphill_paths_to_tier1(graph, destination, max_paths=max_paths)
    pairs = []
    for i, a in enumerate(paths):
        interior_a = set(a[1:])
        for b in paths[i + 1 :]:
            if a[-1] == b[-1]:
                continue
            if interior_a & set(b[1:]):
                continue
            pairs.append((a, b))
    return pairs


def _entry_session(chain: Tuple[ASN, ...]) -> Tuple[ASN, ASN]:
    """The (customer, tier-1) session over which a chain enters the core."""
    return (chain[-2], chain[-1])


def partial_deployment_fraction(
    graph: ASGraph,
    *,
    destinations: Optional[Sequence[ASN]] = None,
    trials: int = 32,
    seed: int = 0,
    max_paths: int = 2_000,
) -> float:
    """Fraction of (destination, coloring) cases with two downhill
    node-disjoint paths under tier-1-only deployment."""
    rng = random.Random(seed)
    dests = list(destinations) if destinations is not None else graph.ases
    successes = 0
    total = 0
    # Destinations sharing a footnote-4 anchor share chain pairs; the
    # Monte Carlo draws stay per-destination, so results are unchanged.
    pairs_of: Dict[ASN, List[Tuple[Tuple[ASN, ...], Tuple[ASN, ...]]]] = {}
    for dest in dests:
        if graph.is_tier1(dest):
            # A tier-1 destination is reached inside the deployed core;
            # both of its processes serve every session directly.
            successes += trials
            total += trials
            continue
        anchor = _phi_anchor(graph, dest)
        if anchor is None:
            total += trials
            continue
        pairs = pairs_of.get(anchor)
        if pairs is None:
            pairs = _disjoint_chain_pairs(graph, anchor, max_paths=max_paths)
            pairs_of[anchor] = pairs
        if not pairs:
            total += trials
            continue
        sessions: Set[Tuple[ASN, ASN]] = set()
        for a, b in pairs:
            sessions.add(_entry_session(a))
            sessions.add(_entry_session(b))
        session_list = sorted(sessions)
        for _ in range(trials):
            coloring = {s: rng.random() < 0.5 for s in session_list}
            if any(
                coloring[_entry_session(a)] != coloring[_entry_session(b)]
                for a, b in pairs
            ):
                successes += 1
            total += 1
    return successes / total if total else 0.0


def full_deployment_fraction(
    graph: ASGraph,
    *,
    destinations: Optional[Sequence[ASN]] = None,
    max_paths: int = 2_000,
) -> float:
    """Fraction of destinations with *any* disjoint chain pair.

    The full-deployment upper bound the partial number is compared
    against (existence, not the lock-choice probability Φ).
    """
    dests = list(destinations) if destinations is not None else graph.ases
    hits = 0
    has_pair: Dict[ASN, bool] = {}
    for dest in dests:
        if graph.is_tier1(dest):
            hits += 1
            continue
        anchor = _phi_anchor(graph, dest)
        if anchor is None:
            continue
        cached = has_pair.get(anchor)
        if cached is None:
            cached = bool(
                _disjoint_chain_pairs(graph, anchor, max_paths=max_paths)
            )
            has_pair[anchor] = cached
        if cached:
            hits += 1
    return hits / len(dests) if dests else 0.0
