"""R-BGP routing process: plain BGP plus failover paths and RCI."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bgp.decision import route_sort_key
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.ribs import Route
from repro.bgp.speaker import BGPSpeaker
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY
from repro.rbgp.messages import FailoverAnnouncement, FailoverWithdrawal
from repro.types import ASN, ASPath, Link, normalize_link


#: Module-wide ``path -> link set`` memo: announcement paths repeat
#: heavily within and across speakers (the same routes are re-sent on
#: every churn), so the normalized link sets are interned.  Bounded by
#: a size cap instead of an eviction policy — a full clear is cheap
#: and correctness never depends on a hit.
_PATH_LINKS_CACHE: dict = {}
_PATH_LINKS_CACHE_MAX = 65536


def path_links(full_path: ASPath) -> frozenset:
    """Normalized set of links along a full (self-first) path."""
    links = _PATH_LINKS_CACHE.get(full_path)
    if links is None:
        if len(_PATH_LINKS_CACHE) >= _PATH_LINKS_CACHE_MAX:
            _PATH_LINKS_CACHE.clear()
        links = _PATH_LINKS_CACHE[full_path] = frozenset(
            normalize_link(u, v) for u, v in zip(full_path, full_path[1:])
        )
    return links


def path_contains_link(full_path: ASPath, link: Link) -> bool:
    """Whether a full path traverses a given (normalized) link."""
    return link in path_links(full_path)


class RBGPSpeaker(BGPSpeaker):
    """One AS's R-BGP process.

    ``rci=True`` is full R-BGP: updates carry root-cause links and the
    speaker purges every Adj-RIB-In/failover path through a root-caused
    link before re-running the decision.  ``rci=False`` is the paper's
    "R-BGP without RCI" baseline: failover paths are still advertised
    and used, but stale paths die only through normal path exploration.
    """

    def __init__(self, *args, rci: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rci = rci
        #: Memoized link sets of ``(self.asn,) + path`` keyed by the
        #: path tuple.  Paths recur heavily across decisions (the same
        #: Adj-RIB-In routes are re-examined by every failover
        #: computation), and the mapping is pure, so entries never
        #: invalidate.
        self._full_links_cache: Dict[ASPath, frozenset] = {}
        #: Links learned (via RCI) to be down; paths through them are
        #: rejected until the session state changes again.
        self.known_bad_links: set = set()
        #: Data-plane entry.  With RCI this retains the last known path
        #: when the control plane withdraws without replacement
        #: (make-before-break): packets keep flowing toward the AS
        #: adjacent to the failure, which diverts them onto a failover
        #: path.  RCI is what makes this retention safe — the root
        #: cause identifies exactly which stale state to trust.
        self.fib_path: Optional[ASPath] = None
        #: Failover paths received from upstream neighbors.
        self.failover_rib: Dict[ASN, ASPath] = {}
        #: (target neighbor, advertised path *excluding ourselves*) of
        #: our last failover advertisement; the self-prefixed wire path
        #: is built only when a message actually goes out.
        self._failover_sent: Optional[Tuple[ASN, ASPath]] = None
        #: True once this speaker hit a state where RCI and no-RCI
        #: *could* behave differently: a best route vanishing while
        #: stale data-plane/failover state existed, a root-caused
        #: message arriving, or a session going down (purge /
        #: known-bad-links divergence).  The known-bad-links branches in
        #: :meth:`on_message` are covered transitively — that set can
        #: only become non-empty through one of the flagged events.
        #: While False, the speaker's entire evolution is provably
        #: identical for ``rci=True`` and ``rci=False`` — the experiment
        #: runner uses this to share one initial convergence between the
        #: two R-BGP variants (see :mod:`repro.experiments.runner`).
        self.rci_sensitive_state = False

    def __getstate__(self):
        """Extend the base speaker's cache-free pickling (snapshots)."""
        state = super().__getstate__()
        state["_full_links_cache"] = {}
        return state

    def _full_path_links(self, path: ASPath) -> frozenset:
        """Links of ``(self.asn,) + path``, memoized per path tuple."""
        links = self._full_links_cache.get(path)
        if links is None:
            links = path_links((self.asn,) + path)
            self._full_links_cache[path] = links
        return links

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_message(self, sender: ASN, message) -> None:
        if sender not in self.sessions:
            return
        if isinstance(message, FailoverAnnouncement):
            self.failover_rib[sender] = message.path
            self._record_failover_state()
            return
        if isinstance(message, FailoverWithdrawal):
            if self.failover_rib.pop(sender, None) is not None:
                self._record_failover_state()
            return
        root_cause = getattr(message, "root_cause", None)
        if root_cause is not None:
            # Root-caused events are where RCI earns its name: from
            # here on the two variants may diverge (purge vs. not).
            self.rci_sensitive_state = True
            if self.rci:
                self._purge_root_cause(root_cause)
        if (
            self.rci
            and isinstance(message, Announcement)
            and root_cause is None
            and self.known_bad_links
        ):
            # A fresh (non-root-caused) announcement attests that every
            # link on its path is up again: recovery information is
            # newer than our failure knowledge.  Route additions cause
            # no transient problems (Lemma 3.1), so trusting it is safe.
            for link in self._full_path_links(message.path):
                self.known_bad_links.discard(link)
        if (
            self.rci
            and isinstance(message, Announcement)
            and self.known_bad_links
            and not self.known_bad_links.isdisjoint(
                self._full_path_links(message.path)
            )
        ):
            # RCI lets us reject a stale path through a failed link as
            # if it were a withdrawal.
            message = Withdrawal(root_cause=root_cause)
        super().on_message(sender, message)
        self._update_failover_advertisement()

    def on_session_down(self, peer: ASN) -> None:
        if peer not in self.sessions:
            return
        if self.failover_rib.pop(peer, None) is not None:
            self._record_failover_state()
        if self._failover_sent is not None and self._failover_sent[0] == peer:
            self._failover_sent = None
        # A session loss is inherently RCI-sensitive: with RCI the link
        # joins known_bad_links and paths through it are purged, without
        # RCI neither happens.  (This also covers links failed *before*
        # initial convergence, e.g. a scenario's restored_links — the
        # twin-start sharing must refuse such starts.)
        self.rci_sensitive_state = True
        if self.rci:
            self._purge_root_cause(normalize_link(self.asn, peer))
        super().on_session_down(peer)
        self._update_failover_advertisement()

    def on_session_up(self, peer: ASN) -> None:
        # A recovery invalidates our stale failure knowledge.
        self.known_bad_links.discard(normalize_link(self.asn, peer))
        super().on_session_up(peer)
        self._update_failover_advertisement()

    def reboot(self, peers) -> None:
        """Restart with empty state, R-BGP included (AS restore).

        On top of the base reboot, the failover RIB, any outstanding
        failover advertisement, and the learned bad-link set are wiped
        — and, critically, the *stale FIB retention* that RCI normally
        performs when the best route vanishes does not apply: a
        restarted router has no FIB to retain, so the data-plane entry
        is cleared unconditionally.
        """
        self.known_bad_links.clear()
        if self.failover_rib:
            self.failover_rib.clear()
            self._record_failover_state()
        self._failover_sent = None
        # Clear the FIB *before* the base reboot: _record_best_change's
        # RCI branch retains stale entries only while fib_path is set,
        # so super()'s best-route clear (and any later re-origination)
        # records cleanly instead of being swallowed by retention.
        stale_retained = self.fib_path is not None and self.best is None
        self.fib_path = None
        if stale_retained and self.trace is not None:
            self.trace.record(self.engine.now, self.asn, self.tag, None)
        super().reboot(peers)

    # ------------------------------------------------------------------
    # RCI
    # ------------------------------------------------------------------

    def _purge_root_cause(self, link: Link) -> None:
        """Drop every known path that traverses the root-caused link
        (the calling message/session handler re-runs the decision)."""
        self.known_bad_links.add(link)
        for neighbor in list(self.adj_rib_in):
            route = self.adj_rib_in.get(neighbor)
            if link in self._full_path_links(route.path):
                self.adj_rib_in.withdraw(neighbor)
                # Out-of-band RIB mutation: the next decision run must
                # rescan rather than trust the incremental keys.
                self._decision_dirty = True
        for upstream in list(self.failover_rib):
            if link in self._full_path_links(self.failover_rib[upstream]):
                del self.failover_rib[upstream]
                self._record_failover_state()

    # ------------------------------------------------------------------
    # Data plane (FIB) semantics
    # ------------------------------------------------------------------

    def _record_best_change(self, old, new) -> None:
        path = new.path if new is not None else None
        if path is None and self.fib_path is not None:
            # This is one of the two points where the RCI and no-RCI
            # variants can diverge; record that it was reached.
            self.rci_sensitive_state = True
            if self.rci:
                # Retain the stale entry; the trace state is unchanged.
                return
        self.fib_path = path
        if self.trace is not None:
            self.trace.record(self.engine.now, self.asn, self.tag, path)

    @property
    def data_plane_path(self) -> Optional[ASPath]:
        """What the FIB currently forwards on (may be stale under RCI)."""
        return self.fib_path

    # ------------------------------------------------------------------
    # Failover advertisement
    # ------------------------------------------------------------------

    def _failover_key_for(self, route: Route, primary_links: frozenset) -> Tuple:
        """Selection key of one failover candidate (min = chosen).

        Mirrors ``(overlap,) + route_sort_key(...)``; the lock rank is
        the constant 1 here because failover selection never prefers
        locked routes (R-BGP has no Lock attribute).
        """
        overlap = len(primary_links & self._full_path_links(route.path))
        base = route.base_key
        if base is None:
            return (overlap,) + route_sort_key(self.graph, self.asn, route)
        return (overlap, base[0], 1, base[1], base[2])

    def compute_failover_route(self) -> Optional[Route]:
        """Most disjoint alternate to our primary path.

        Disjointness is measured in shared links with the primary path
        (R-BGP's criterion), ties broken by the regular decision order.
        Unlike regular announcements, failover paths are *not* subject
        to the valley-free export filter: the R-BGP paper explicitly
        relaxes export policy for failover paths (they are used only
        transiently, and ASes have a reachability incentive to accept
        the brief policy violation).  Without this relaxation a tier-1
        could never receive a failover path from a peer, crippling
        recovery from core-link failures.
        """
        best = self.best
        if best is None or best.is_origin:
            return None
        target = best.learned_from
        primary_links = self._full_path_links(best.path)
        best_candidate: Optional[Route] = None
        best_key: Optional[Tuple] = None
        for route in self.adj_rib_in.routes():
            if route.learned_from == target:
                continue
            if target in route.path:
                # Useless to the target: it would route through itself.
                continue
            key = self._failover_key_for(route, primary_links)
            if best_key is None or key < best_key:
                best_candidate, best_key = route, key
        return best_candidate

    def _update_failover_advertisement(self) -> None:
        """(Re-)advertise our failover path to the primary next hop."""
        if self.best is None and self._failover_sent is not None:
            # The second RCI-sensitive point (see rci_sensitive_state).
            self.rci_sensitive_state = True
            if self.rci:
                # Our route vanished but (under make-before-break)
                # upstream traffic may still flow through the old next
                # hop; keep the failover advertisement alive until we
                # re-route.
                return
        failover = self.compute_failover_route()
        desired: Optional[Tuple[ASN, ASPath]] = None
        if failover is not None:
            desired = (self.best.learned_from, failover.path)
        if desired == self._failover_sent:
            return
        if self._failover_sent is not None:
            old_target, _ = self._failover_sent
            if desired is None or desired[0] != old_target:
                if old_target in self.sessions:
                    self.stats.withdrawals += 1
                    self.transport.send(
                        self.asn, old_target, FailoverWithdrawal(), tag=self.tag
                    )
        if desired is not None:
            self.stats.announcements += 1
            self.transport.send(
                self.asn,
                desired[0],
                FailoverAnnouncement(path=(self.asn,) + desired[1]),
                tag=self.tag,
            )
        self._failover_sent = desired

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def _record_failover_state(self) -> None:
        if self.trace is not None:
            self.trace.record(
                self.engine.now, self.asn, FAILOVER, self.failover_state()
            )

    def failover_state(self) -> Tuple[Tuple[ASN, ASPath], ...]:
        """Current failover entries in trace format."""
        return tuple(
            (upstream, self.failover_rib[upstream])
            for upstream in sorted(self.failover_rib)
        )
