"""Gao-Rexford routing policies: prefer-customer local preference.

These are the import half of the "two common routing policies" of
paper section 2.1 under which BGP is provably safe, and the baseline
every simulated protocol applies.  The other half, the valley-free
export rule, is evaluated in one place:
:meth:`repro.bgp.speaker.BGPSpeaker.export_for`, and AS-path loop
detection in one place: :meth:`repro.bgp.speaker.BGPSpeaker.on_message`.
"""

from __future__ import annotations

from repro.bgp.ribs import Route
from repro.topology.graph import ASGraph
from repro.types import ASN, RELATIONSHIP_PREFERENCE


#: Local preference of an originated route: above every learned route
#: (the destination never prefers a transit route to its own prefix).
ORIGIN_PREFERENCE: int = max(RELATIONSHIP_PREFERENCE.values()) + 1


def relationship_pref(graph: ASGraph, asn: ASN, route: Route) -> int:
    """Local preference of a route (customer > peer > provider).

    Routes that carry a cached ``pref`` (attached at Adj-RIB-In
    insertion) are answered without touching the graph; the others
    read the graph's per-AS preference table.
    """
    if route.pref is not None:
        return route.pref
    if route.is_origin:
        return ORIGIN_PREFERENCE
    return graph.neighbor_tables(asn)[0][route.learned_from]

