"""Data plane of R-BGP: primary forwarding plus pinned failover paths.

Snapshot state:

* ``(asn, 'primary')`` — current best path (announcer-first) or ``None``;
* ``(asn, 'failover')`` — tuple of ``(upstream, path)`` failover entries
  the AS has received (each ``path`` starts at ``upstream`` and was that
  upstream's most disjoint alternate).

Walk semantics (AS-level abstraction of R-BGP's virtual interfaces):
packets follow primaries; an AS whose primary is unusable diverts onto
one received failover path, which is then followed *pinned* hop by hop
(intermediate ASes forward along the virtual interface, not their own
tables).  A packet may divert only once; a pinned hop that crosses a
failed link or AS drops the packet.

The RCI distinction (see the R-BGP paper's argument for why root cause
information is needed at all):

* **with RCI** any AS that lost its route may divert, and it knows
  which failover entries are stale (they traverse the root-cause link)
  so it skips them;
* **without RCI** an AS can only divert safely when it *locally*
  detected the failure (its own link or neighbor died) — a remote loss
  is indistinguishable from a withdrawal of the failover path itself,
  and R-BGP's loop-freedom argument collapses; moreover the pick is
  oblivious, so a stale entry pins a broken path and the packet drops.

On the successor table R-BGP is *one* state per AS, exactly like BGP:
a pinned walk reads nothing but its own path and the failure sets and
never re-enters an AS state, so the whole ride folds to a terminal
(delivered / blackhole) when the diverting AS's row is derived.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.forwarding.walk import (
    BLACKHOLE_SID,
    DELIVERED_SID,
    SuccessorTable,
    WalkClassifier,
)
from repro.types import ASN, ASPath

PRIMARY = "primary"
FAILOVER = "failover"

class _RBGPTable(SuccessorTable):
    """One state per AS: usable primary hop, else the folded failover.

    Columns: primary next hop (indexed like BGP's), received failover
    entries (followed hop by hop, so the full value is walk-observable).
    """

    slots = 2

    def __init__(self, plane, state, failed_links, failed_ases) -> None:
        #: Rows whose primary is unusable: the only rows that read the
        #: failure sets past their own hop (failover rides, the
        #: local-detector set).  Kept by :meth:`_derive`.
        self.diverting: Set[int] = set()
        super().__init__(plane, state, failed_links, failed_ases)

    def _project(self, tag, value):
        if tag == PRIMARY:
            return 0, (value[0] if value else None)
        return 1, value

    def _set_failures(self, failed_links, failed_ases) -> None:
        super()._set_failures(failed_links, failed_ases)
        self.local_detectors = self.plane._local_detectors(
            failed_links, failed_ases
        )

    def _boundary_rows(self, changed_pairs, toggled_ases):
        """The base rule finds every row whose primary turns usable or
        unusable; a row diverting before the boundary re-derives too.
        A row whose primary stays usable derives the same, whatever
        failover hop or local detector the delta moved."""
        affected = super()._boundary_rows(changed_pairs, toggled_ases)
        affected |= self.diverting
        return affected

    def _derive(self, i: int):
        asn = self.asns[i]
        target = self._usable(asn, self.proj[0][i])
        if target >= 0:
            self.diverting.discard(i)
            return i, target
        self.diverting.add(i)
        rci = self.plane.rci
        if not rci and asn not in self.local_detectors:
            return i, BLACKHOLE_SID
        for _, path in self.proj[1][i] or ():
            terminal, intact = self._ride(asn, path)
            # RCI skips entries it knows are broken; without it the
            # pick is oblivious and rides the first entry regardless.
            if intact or not rci:
                return i, terminal
        return i, BLACKHOLE_SID

    def _ride(self, asn: ASN, path: ASPath) -> Tuple[int, bool]:
        """Fold the pinned walk from ``asn`` along ``path``.

        Returns the terminal the packet reaches (delivered at the
        first destination hop, blackhole at a failed hop or when the
        path ends elsewhere) and whether *every* link of the path is
        up (RCI's staleness test reads past the destination too).
        """
        link_ok = self._link_ok
        destination = self.destination
        terminal = BLACKHOLE_SID
        previous = asn
        for hop in path:
            if not link_ok(previous, hop):
                return terminal, False
            if hop == destination:
                terminal = DELIVERED_SID
            previous = hop
        return terminal, True


class RBGPDataPlane(WalkClassifier):
    """Walks packets under R-BGP forwarding (with or without RCI).

    ``graph`` is needed for the no-RCI variant to decide which ASes
    locally detected a failure (endpoint of a failed link or neighbor
    of a failed AS).
    """

    def __init__(self, destination: ASN, *, rci: bool, graph=None) -> None:
        super().__init__(destination)
        self.rci = rci
        self.graph = graph

    def _local_detectors(self, failed_links, failed_ases) -> Set[ASN]:
        """ASes that may divert without RCI (empty with RCI: unused)."""
        local_detectors: Set[ASN] = set()
        if not self.rci:
            for a, b in failed_links:
                local_detectors.add(a)
                local_detectors.add(b)
            if self.graph is not None:
                for asn in failed_ases:
                    if asn in self.graph:
                        local_detectors.update(self.graph.neighbors(asn))
        return local_detectors

    def _session_table(self, state, failed_links, failed_ases) -> _RBGPTable:
        return _RBGPTable(self, state, failed_links, failed_ases)
