"""The speaker's inline policy rules, stated on their own: the
Gao-Rexford decision order on the graph (the twin of the decision key a
speaker stores with each route), the valley-free export rule
(``export_for``'s twin) and the AS-path loop check (``on_message``'s
twin)."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.bgp.ribs import Route
from repro.topology.graph import ASGraph
from repro.types import ASN, RELATIONSHIP_PREFERENCE, Relationship

#: Local preference of an originated route: above every learned route
#: (the destination never prefers a transit route to its own prefix).
ORIGIN_PREFERENCE: int = max(RELATIONSHIP_PREFERENCE.values()) + 1


def relationship_pref(graph: ASGraph, asn: ASN, route: Route) -> int:
    """Local preference of a route (customer > peer > provider), read
    from the graph's relationship of the announcing neighbor."""
    if route.is_origin:
        return ORIGIN_PREFERENCE
    return RELATIONSHIP_PREFERENCE[graph.relationship(asn, route.learned_from)]


def route_sort_key(
    graph: ASGraph, asn: ASN, route: Route, *, prefer_locked: bool = False
) -> Tuple[int, int, int, int]:
    """Sort key such that the minimum is the best route.

    Selection order: highest local preference (prefer-customer), then
    STAMP's lock preference when ``prefer_locked`` (a blue process keeps
    selecting a Lock-carrying route, so the guaranteed blue downhill
    chain survives route selection; locked routes only ever arrive from
    customers, so this stays within Gao-Rexford safety), then shortest
    AS path, then lowest neighbor ASN.  Computed from the graph on every
    call; the key a speaker stored with the route is never read.
    """
    lock_rank = 0 if (prefer_locked and route.lock) else 1
    neighbor = route.learned_from if route.learned_from is not None else -1
    return (
        -relationship_pref(graph, asn, route),
        lock_rank,
        route.length,
        neighbor,
    )


def best_route(
    graph: ASGraph,
    asn: ASN,
    candidates: Iterable[Route],
    *,
    prefer_locked: bool = False,
) -> Optional[Route]:
    """The best of ``candidates`` by a full sort, or ``None`` if empty."""
    ranked = sorted(
        candidates,
        key=lambda route: route_sort_key(
            graph, asn, route, prefer_locked=prefer_locked
        ),
    )
    return ranked[0] if ranked else None


def export_allowed(
    graph: ASGraph,
    asn: ASN,
    route: Route,
    to_neighbor: ASN,
) -> bool:
    """Valley-free export rule.

    Routes learned from a peer or provider are exported only to
    customers; customer-learned and originated routes go to everyone.
    The route is never reflected back to the neighbor it came from.

    NOTE: the speaker hot path inlines this rule once, against its
    cached relationship table, in ``BGPSpeaker.export_for`` — the only
    place a speaker evaluates it.  Any change here must be mirrored
    there; ``tests/bgp/test_speaker.py``'s export-equivalence test
    enforces agreement.
    """
    if route.learned_from == to_neighbor:
        return False
    if graph.relationship(asn, to_neighbor) is Relationship.CUSTOMER:
        return True
    if route.is_origin:
        return True
    learned_rel = graph.relationship(asn, route.learned_from)
    return learned_rel is Relationship.CUSTOMER


def import_accept(asn: ASN, path) -> bool:
    """Receiver-side import filter: reject paths containing ourselves.

    This is BGP's standard AS-path loop detection, which
    ``BGPSpeaker.on_message`` applies inline.
    """
    return asn not in path
