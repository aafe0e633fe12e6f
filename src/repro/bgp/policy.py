"""Gao-Rexford routing policies: prefer-customer and valley-free export.

These are the "two common routing policies" of paper section 2.1 under
which BGP is provably safe, and the baseline policies every simulated
protocol applies.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.ribs import Route
from repro.topology.graph import ASGraph
from repro.types import ASN, RELATIONSHIP_PREFERENCE, Relationship


#: Local preference of an originated route: above every learned route
#: (the destination never prefers a transit route to its own prefix).
ORIGIN_PREFERENCE: int = max(RELATIONSHIP_PREFERENCE.values()) + 1


def relationship_pref(graph: ASGraph, asn: ASN, route: Route) -> int:
    """Local preference of a route (customer > peer > provider).

    Routes that carry a cached ``pref`` (attached at Adj-RIB-In
    insertion) are answered without touching the graph.
    """
    if route.pref is not None:
        return route.pref
    if route.is_origin:
        return ORIGIN_PREFERENCE
    rel = graph.relationship(asn, route.learned_from)
    return RELATIONSHIP_PREFERENCE[rel]


def import_accept(asn: ASN, path) -> bool:
    """Receiver-side import filter: reject paths containing ourselves.

    This is BGP's standard AS-path loop detection.
    """
    return asn not in path


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


def learned_relationship(
    graph: ASGraph, asn: ASN, route: Route
) -> Optional[Relationship]:
    """Relationship of the neighbor a route was learned from.

    ``None`` for originated routes.
    """
    if route.is_origin:
        return None
    return graph.relationship(asn, route.learned_from)
