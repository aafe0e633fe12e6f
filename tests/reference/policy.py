"""The speaker's two inline policy rules, stated on their own: the
valley-free export rule on the graph (``export_for``'s twin) and the
AS-path loop check (``on_message``'s twin)."""

from __future__ import annotations

from repro.bgp.ribs import Route
from repro.topology.graph import ASGraph
from repro.types import ASN, Relationship


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
