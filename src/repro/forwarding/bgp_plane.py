"""Data plane of plain BGP: hop-by-hop best-route forwarding.

The snapshot state maps ``(asn, None)`` to the AS's current best path
(announcer-first, i.e. ``path[0]`` is the next hop) or ``None``.
"""

from __future__ import annotations

from typing import Optional

from repro.forwarding.walk import SuccessorTable, WalkClassifier, WalkSpec
from repro.types import ASN, normalize_link


class _BGPTable(SuccessorTable):
    """One state per AS: its usable next hop, or blackhole."""

    def _project(self, tag, value):
        if tag is not None:
            return None
        # Walks only ever look at a route's next hop.
        return 0, (value[0] if value else None)

    def _derive(self, i: int):
        return i, self._usable(self.asns[i], self.proj[0][i])


class BGPDataPlane(WalkClassifier):
    """Walks packets along each AS's current best next hop."""

    def _walk_spec(self, state, failed_links, failed_ases) -> WalkSpec:
        destination = self.destination
        state_get = state.get

        def successor(asn: ASN) -> Optional[ASN]:
            path = state_get((asn, None))
            if not path:
                return None
            next_hop = path[0]
            if next_hop in failed_ases:
                return None
            if normalize_link(asn, next_hop) in failed_links:
                return None
            return next_hop

        def delivered(asn: ASN) -> bool:
            return asn == destination

        return WalkSpec(successor, delivered)

    def _session_table(self, state, failed_links, failed_ases) -> _BGPTable:
        return _BGPTable(self, state, failed_links, failed_ases)
