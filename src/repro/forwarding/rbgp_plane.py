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

from typing import Optional, Set, Tuple

from repro.forwarding.walk import (
    BLACKHOLE_SID,
    DELIVERED_SID,
    SuccessorTable,
    WalkClassifier,
    WalkSpec,
)
from repro.types import ASN, ASPath, normalize_link

PRIMARY = "primary"
FAILOVER = "failover"

#: Walk states: plain AS for primary forwarding, or a pinned position
#: ``('pin', path, index)`` while riding a failover path.
_PinState = Tuple[str, ASPath, int]


class _RBGPTable(SuccessorTable):
    """One state per AS: usable primary hop, else the folded failover.

    Columns: primary next hop, received failover entries (followed hop
    by hop, so the full value is walk-observable).
    """

    slots = 2
    #: Rows also read the failure sets through failover-path hops and
    #: (no RCI) the local-detector set, which no hop index covers:
    #: every row is re-derived at a boundary instead.
    hop_slots = 0

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
        return range(len(self.asns))

    def _derive(self, i: int):
        asn = self.asns[i]
        target = self._usable(asn, self.proj[0][i])
        if target >= 0:
            return i, target
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

    def _walk_spec(self, state, failed_links, failed_ases) -> WalkSpec:
        destination = self.destination
        rci = self.rci
        state_get = state.get
        local_detectors = self._local_detectors(failed_links, failed_ases)

        def link_ok(a: ASN, b: ASN) -> bool:
            return (
                b not in failed_ases
                and a not in failed_ases
                and normalize_link(a, b) not in failed_links
            )

        def path_intact(start: ASN, path: ASPath) -> bool:
            hops = (start,) + path
            return all(link_ok(u, v) for u, v in zip(hops, hops[1:]))

        def pick_failover(asn: ASN) -> Optional[ASPath]:
            # Pinned (virtual-interface) forwarding may legitimately
            # pass back through the diverting AS itself — the bounce is
            # part of R-BGP's design — so entries are not filtered on
            # that.
            entries = state_get((asn, FAILOVER)) or ()
            for _, path in entries:
                if rci:
                    # RCI: the AS knows which entries are broken.
                    if path_intact(asn, path):
                        return path
                else:
                    # No RCI: pick the first entry obliviously.
                    return path
            return None

        def successor(walk_state) -> Optional[object]:
            if isinstance(walk_state, tuple) and walk_state[0] == "pin":
                _, path, index = walk_state
                return _advance_pin(path, index)
            asn = walk_state
            path = state_get((asn, PRIMARY))
            if path and link_ok(asn, path[0]):
                return path[0]
            if not rci and asn not in local_detectors:
                # Without root cause information a remotely-caused loss
                # cannot safely trigger failover forwarding.
                return None
            # Primary unusable: divert once onto a received failover.
            failover = pick_failover(asn)
            if failover is None:
                return None
            if not link_ok(asn, failover[0]):
                return None
            return ("pin", (asn,) + failover, 1)

        def _advance_pin(path: ASPath, index: int):
            current, nxt = path[index - 1], path[index]
            if not link_ok(current, nxt):
                return None
            if nxt == destination:
                return nxt  # delivered
            if index + 1 >= len(path):
                return None  # pinned path ended off-destination
            return ("pin", path, index + 1)

        def delivered(walk_state) -> bool:
            return walk_state == destination

        return WalkSpec(successor, delivered)

    def _session_table(self, state, failed_links, failed_ases) -> _RBGPTable:
        return _RBGPTable(self, state, failed_links, failed_ases)
