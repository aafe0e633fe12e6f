"""One BGP routing process (single prefix, eBGP, AS-level).

The speaker implements the standard machinery the paper keeps
unchanged: Adj-RIB-In per neighbor, the decision process, valley-free
export with MRAI pacing, immediate withdrawals, session resets, and
AS-path loop rejection.  The paper's two "minor" extensions hook in
without subclassing:

* an ``export_gate`` callback lets STAMP apply selective announcement
  toward providers (and set the Lock bit);
* the ET bit is propagated automatically: any best-route change whose
  proximate trigger was a loss (withdrawal, session reset, or an update
  carrying ET=0) sends updates with ET=0.

Batching semantics of the export path: a best-route change marks every
session whose Adj-RIB-Out went stale; when MRAI permits, the update is
emitted synchronously with the export state computed *once* for that
refresh (the pacer's :meth:`~repro.sim.timers.MRAIPacer.try_send_now`
claims the slot), and otherwise the peer's pending changes coalesce
behind the armed MRAI timer until :meth:`BGPSpeaker._flush_peer`
advertises the *net* change — a withdraw+announce churn pair inside
one window collapses to the single message (or none) describing the
final state.  Coalescing cannot reorder deliveries: every update to a
peer travels on the same FIFO transport channel, and batching only
elides intermediate Adj-RIB-Out states strictly *between* two emitted
messages — it never delays one message past another, and the flush
re-reads the latest state at fire time.  The fixed-seed golden test
pins all of this to byte-identical traces.

R-BGP extends the class (see :mod:`repro.rbgp.speaker`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.bgp.decision import best_route, route_sort_key
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.policy import ORIGIN_PREFERENCE, import_accept
from repro.bgp.ribs import AdjRibIn, Route
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig, MRAIPacer
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.types import (
    ASN,
    ASPath,
    EventType,
    Link,
    RELATIONSHIP_PREFERENCE,
    Relationship,
    normalize_link,
)

#: Export gate: ``(peer, route) -> (allow, lock)``.
ExportGate = Callable[[ASN, Route], Tuple[bool, bool]]
#: Best-change observer: ``(speaker, old, new, et, root_cause)``.
BestChangeListener = Callable[
    ["BGPSpeaker", Optional[Route], Optional[Route], EventType, Optional[Link]],
    None,
]

#: What we last advertised to a peer: (path-including-self, lock bit).
Advertised = Tuple[ASPath, bool]

#: Sentinel distinguishing "not passed" from an explicit ``None`` export.
_UNSET = object()

#: Bound once: an enum member looked up through its class costs as much
#: as two method calls, and ``export_for`` compares against it per peer.
_CUSTOMER = Relationship.CUSTOMER


@dataclass
class ProtocolStats:
    """Message counters for one protocol run (shared across speakers)."""

    announcements: int = 0
    withdrawals: int = 0

    @property
    def updates(self) -> int:
        """Total update messages (announcements + withdrawals)."""
        return self.announcements + self.withdrawals


@dataclass(frozen=True)
class SpeakerConfig:
    """Per-speaker protocol knobs."""

    mrai: MRAIConfig = field(default_factory=MRAIConfig)
    #: STAMP blue processes prefer Lock-carrying routes (section 4.1).
    prefer_locked: bool = False


class _PendingContext:
    """Event context accumulated between decision and MRAI flush."""

    __slots__ = ("et", "root_cause")

    def __init__(self) -> None:
        self.et = EventType.NO_LOSS
        self.root_cause: Optional[Link] = None

    def merge(self, et: EventType, root_cause: Optional[Link]) -> None:
        if et is EventType.LOSS:
            self.et = EventType.LOSS
        if root_cause is not None:
            self.root_cause = root_cause


class BGPSpeaker:
    """A single AS's routing process for one prefix."""

    def __init__(
        self,
        asn: ASN,
        graph,
        engine: Engine,
        transport: Transport,
        *,
        config: Optional[SpeakerConfig] = None,
        tag: Hashable = None,
        trace: Optional[ForwardingTrace] = None,
        stats: Optional[ProtocolStats] = None,
        export_gate: Optional[ExportGate] = None,
        gate_peers: Optional[Iterable[ASN]] = None,
        on_best_change: Optional[BestChangeListener] = None,
        shared_tables: Optional[Tuple[Dict, Dict]] = None,
    ) -> None:
        self.asn = asn
        self.graph = graph
        self.engine = engine
        self.transport = transport
        self.config = config or SpeakerConfig()
        self.tag = tag
        self.trace = trace
        self.stats = stats or ProtocolStats()
        if (export_gate is None) != (gate_peers is None):
            raise ValueError("export_gate and gate_peers come together")
        self.export_gate = export_gate
        #: The only peers the gate is consulted for (STAMP restricts the
        #: provider direction only); empty without a gate.  A gated
        #: speaker's ``on_best_change`` listener owns their refresh: it
        #: runs right before the speaker's own fan-out, with the
        #: decision's exact event context, so ``schedule_exports``
        #: leaves them alone.
        self.gate_peers: frozenset = frozenset(gate_peers or ())
        #: Gate peers the listener handed back to this decision's
        #: fan-out (see :meth:`gate_refresh_queue`).
        self._gate_refresh_pending: Optional[List[ASN]] = None
        self.on_best_change = on_best_change

        self.sessions: Set[ASN] = set(graph.neighbors(asn))
        #: Cached ``sorted(self.sessions)``; rebuilt after session churn.
        self._sessions_sorted: Optional[Tuple[ASN, ...]] = None
        #: Per-neighbor local preference and relationship, so neither
        #: route insertion (and hence the decision process) nor the
        #: valley-free export check does graph lookups on the hot path.
        #: Seeded eagerly (one adjacency-row copy beats per-neighbor
        #: lazy misses — every neighbor is consulted by the export
        #: fan-out anyway); co-located speakers of one AS (STAMP's
        #: color pair) share one pre-populated pair via
        #: ``shared_tables`` instead of each deriving its own.
        if shared_tables is not None:
            self._pref_table, self._rel_table = shared_tables
        else:
            self._rel_table = graph.neighbor_relationships(asn)
            self._pref_table = {
                neighbor: RELATIONSHIP_PREFERENCE[rel]
                for neighbor, rel in self._rel_table.items()
            }
        self.adj_rib_in = AdjRibIn()
        self.best: Optional[Route] = None
        #: Sort key of :attr:`best` (maintained by ``_run_decision``);
        #: lets single-neighbor RIB changes update the selection in O(1)
        #: instead of rescanning every candidate.
        self._best_key: Optional[Tuple[int, int, int, int]] = None
        #: Set when the Adj-RIB-In was mutated outside the per-message
        #: bookkeeping (R-BGP's root-cause purge): forces a full rescan.
        self._decision_dirty = False
        self.is_origin = False
        #: ``(self.asn,) + best.path``, built lazily once per best-route
        #: change instead of once per export evaluation.
        self._export_path: Optional[ASPath] = None
        self._advertised: Dict[ASN, Advertised] = {}
        self._pending: Dict[ASN, _PendingContext] = {}
        self._pacer = MRAIPacer(engine, self.config.mrai, self._flush_peer)

        transport.register_receiver(asn, self.on_message, tag=tag)

    def __getstate__(self):
        """Pickle without derived caches (twin-start snapshots).

        Everything dropped here is rebuilt lazily on first use;
        restoring with cold caches is behavior-identical.  The graph
        itself is dropped too — the snapshot owner re-binds the shared
        topology on restore, which keeps the whole pickled object graph
        free of it (no per-object ``persistent_id`` hook needed).
        """
        state = self.__dict__.copy()
        state["graph"] = None
        state["_pref_table"] = {}
        state["_rel_table"] = {}
        state["_sessions_sorted"] = None
        state["_export_path"] = None
        return state

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def originate(self) -> None:
        """Become the origin of the prefix and start advertising."""
        self.is_origin = True
        self._run_decision(EventType.NO_LOSS, None)

    def local_pref(self, neighbor: ASN) -> int:
        """Local preference toward a neighbor (cached; the graph is
        frozen, so an entry never goes stale)."""
        pref = self._pref_table.get(neighbor)
        if pref is None:
            rel = self._neighbor_rel(neighbor)
            pref = RELATIONSHIP_PREFERENCE[rel]
            self._pref_table[neighbor] = pref
        return pref

    def _neighbor_rel(self, neighbor: ASN) -> Relationship:
        """Relationship toward a neighbor (cached, like :meth:`local_pref`;
        a miss after a twin restore re-reads the graph)."""
        rel = self._rel_table.get(neighbor)
        if rel is None:
            rel = self.graph.relationship(self.asn, neighbor)
            self._rel_table[neighbor] = rel
        return rel

    def sorted_sessions(self) -> Tuple[ASN, ...]:
        """Sessions in deterministic (ascending ASN) order, cached."""
        if self._sessions_sorted is None:
            self._sessions_sorted = tuple(sorted(self.sessions))
        return self._sessions_sorted

    def on_message(self, sender: ASN, message) -> None:
        """Process one incoming update from a neighbor."""
        if sender not in self.sessions:
            return  # stale message from a torn-down session
        if type(message) is Announcement or isinstance(message, Announcement):
            if import_accept(self.asn, message.path):
                route = Route(
                    path=message.path,
                    learned_from=sender,
                    et=message.et,
                    lock=message.lock,
                    pref=self.local_pref(sender),
                )
                self.adj_rib_in.update(sender, route)
                self._run_decision(
                    message.et, message.root_cause,
                    changed_neighbor=sender, new_route=route,
                )
            else:
                # A path through us means the neighbor no longer has an
                # independent route: implicit withdrawal.
                self.adj_rib_in.withdraw(sender)
                self._run_decision(
                    message.et, message.root_cause,
                    changed_neighbor=sender, new_route=None,
                )
        elif isinstance(message, Withdrawal):
            self.adj_rib_in.withdraw(sender)
            self._run_decision(
                message.et, message.root_cause,
                changed_neighbor=sender, new_route=None,
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")

    def on_session_down(self, peer: ASN) -> None:
        """Handle loss of the session to a neighbor (link/node failure)."""
        if peer not in self.sessions:
            return
        self.sessions.discard(peer)
        self._sessions_sorted = None
        self._pacer.cancel(peer)
        self._advertised.pop(peer, None)
        self._pending.pop(peer, None)
        self.adj_rib_in.withdraw(peer)
        self._run_decision(
            EventType.LOSS,
            normalize_link(self.asn, peer),
            changed_neighbor=peer,
            new_route=None,
        )

    def on_session_up(self, peer: ASN) -> None:
        """(Re-)establish a session and advertise our current state."""
        if peer in self.sessions:
            return
        self.sessions.add(peer)
        self._sessions_sorted = None
        self.refresh_peer(peer)

    def reboot(self, peers: Iterable[ASN]) -> None:
        """Restart this process with empty protocol state (AS restore).

        Models a maintenance restart: the Adj-RIB-In, Adj-RIB-Out
        bookkeeping, pending flushes, and armed MRAI timers are all
        wiped, and the session set becomes exactly ``peers`` (the
        neighbors whose physical link is currently up).  This is a
        pure state reset: nothing is advertised and ``on_best_change``
        observers are *not* invoked — the owning network (or STAMP
        node) re-originates an origin by calling :meth:`originate`
        *after every co-located process has been reset*, so no export
        decision ever runs against a half-rebooted sibling.  The trace
        still records the cleared forwarding state.
        """
        self._pacer.reset()
        self.sessions = set(peers)
        self._sessions_sorted = None
        self.adj_rib_in.clear()
        self._advertised.clear()
        self._pending.clear()
        self._gate_refresh_pending = None
        old = self.best
        self.best = None
        self._best_key = None
        self._decision_dirty = False
        self._export_path = None
        if old is not None:
            self._record_best_change(old, None)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------

    def _candidates(self) -> Iterable[Route]:
        if self.is_origin:
            return [Route(path=(), learned_from=None, pref=ORIGIN_PREFERENCE)]
        return self.adj_rib_in.routes()

    def _rescan_best(self) -> Optional[Route]:
        """Full candidate scan; also refreshes the cached best key."""
        prefer_locked = self.config.prefer_locked
        graph, asn = self.graph, self.asn
        best: Optional[Route] = None
        best_key = None
        for route in self.adj_rib_in.routes():
            key = route_sort_key(graph, asn, route, prefer_locked=prefer_locked)
            if best_key is None or key < best_key:
                best, best_key = route, key
        self._best_key = best_key
        return best

    def _run_decision(
        self,
        cause_et: EventType,
        root_cause: Optional[Link],
        *,
        changed_neighbor: Optional[ASN] = None,
        new_route: Optional[Route] = None,
    ) -> None:
        """Re-select the best route and react to a change.

        ``changed_neighbor`` (when given) asserts that this decision was
        triggered by a single Adj-RIB-In mutation for that neighbor,
        enabling the O(1) incremental update: the sort key totally
        orders candidates (the neighbor ASN is its last component), so
        comparing the changed route against the cached best key is
        exact.  Any out-of-band RIB mutation (R-BGP's root-cause purge)
        sets ``_decision_dirty`` and forces the full rescan.
        """
        if self.is_origin:
            if self.best is not None:
                return  # the originated route never changes
            new: Optional[Route] = best_route(
                self.graph,
                self.asn,
                self._candidates(),
                prefer_locked=self.config.prefer_locked,
            )
        elif (
            changed_neighbor is None
            or self._decision_dirty
            or self.best is None
            or self._best_key is None
            or changed_neighbor == self.best.learned_from
        ):
            self._decision_dirty = False
            new = self._rescan_best()
        elif new_route is None:
            # Withdrawal of a non-best neighbor: selection unchanged.
            return
        else:
            base = new_route.base_key
            if base is None:
                key = route_sort_key(
                    self.graph,
                    self.asn,
                    new_route,
                    prefer_locked=self.config.prefer_locked,
                )
            else:
                # Inline route_sort_key's cached-base composition.
                lock_rank = (
                    0 if (self.config.prefer_locked and new_route.lock) else 1
                )
                key = (base[0], lock_rank, base[1], base[2])
            if key >= self._best_key:  # type: ignore[operator]
                return  # updated route does not beat the current best
            new = new_route
            self._best_key = key
        if new == self.best:
            return
        old, self.best = self.best, new
        self._export_path = None  # rebuilt lazily on the next export
        et_out = EventType.LOSS if cause_et is EventType.LOSS else EventType.NO_LOSS
        self._record_best_change(old, new)
        if self.on_best_change is not None:
            self.on_best_change(self, old, new, et_out, root_cause)
        self.schedule_exports(et_out, root_cause)

    def _record_best_change(self, old: Optional[Route], new: Optional[Route]) -> None:
        """Publish the new data-plane state to the trace.

        Subclasses may record something other than the raw best path
        (R-BGP retains stale FIB entries, for instance).
        """
        del old
        if self.trace is not None:
            state = new.path if new is not None else None
            self.trace.record(self.engine.now, self.asn, self.tag, state)

    # ------------------------------------------------------------------
    # Export path
    # ------------------------------------------------------------------

    def export_for(self, peer: ASN) -> Optional[Advertised]:
        """What we should currently be advertising to a peer.

        The one evaluation of the export decision: the valley-free rule
        runs inline on the cached per-neighbor relationship table
        (identical semantics to
        :func:`repro.bgp.policy.export_allowed`), then the gate for the
        peers it covers.  The advertised path tuple is shared across
        peers via :attr:`_export_path` — one allocation per best-route
        change rather than one per evaluation.
        """
        best = self.best
        if best is None or peer not in self.sessions:
            return None
        learned_from = best.learned_from
        if learned_from == peer:
            return None  # never reflect a route back to its announcer
        if self._neighbor_rel(peer) is not _CUSTOMER:
            # Peer/provider-learned routes are exported to customers only.
            if learned_from is not None and (
                self._neighbor_rel(learned_from) is not _CUSTOMER
            ):
                return None
        lock = False
        if peer in self.gate_peers:
            allow, lock = self.export_gate(peer, best)
            if not allow:
                return None
        path = self._export_path
        if path is None:
            path = self._export_path = (self.asn,) + best.path
        return (path, lock)

    def schedule_exports(
        self,
        et: EventType = EventType.NO_LOSS,
        root_cause: Optional[Link] = None,
    ) -> None:
        """Queue (MRAI-paced) re-advertisement to every stale peer.

        One pass over the sessions in ascending ASN order — the send
        order, and hence the order of the transport's delay draws.  A
        gated speaker's :attr:`gate_peers` were refreshed by its
        ``on_best_change`` listener just before this fan-out, so they
        are passed over, except those the listener handed back through
        :meth:`gate_refresh_queue`.
        """
        gate_peers = self.gate_peers
        queued = self._gate_refresh_pending or ()
        self._gate_refresh_pending = None
        refresh = self.refresh_peer
        for peer in self.sorted_sessions():
            if peer not in gate_peers or peer in queued:
                refresh(peer, et, root_cause)

    def refresh_peer(
        self,
        peer: ASN,
        et: EventType = EventType.NO_LOSS,
        root_cause: Optional[Link] = None,
        *,
        desired: object = _UNSET,
    ) -> None:
        """Re-advertise to one peer if our exported state went stale.

        STAMP's node-level coordination calls this when the color
        assignment of a provider changes without this process's own
        best route changing; callers that already evaluated
        :meth:`export_for` in the same synchronous step may pass the
        result via ``desired`` to skip re-evaluating it (and, for gated
        speakers, re-invoking the gate).

        This is the speaker's coalescing point.  The desired Adj-RIB-Out
        state is computed exactly once; when MRAI allows an immediate
        send the update goes out synchronously with that precomputed
        state (no second export evaluation), and otherwise the peer is
        marked pending and the armed MRAI timer absorbs every further
        change until it fires — at which point :meth:`_flush_peer`
        re-reads the *latest* state, so a withdraw+announce churn pair
        inside one MRAI window collapses into the single message (or no
        message) describing the net change.
        """
        if peer not in self.sessions:
            return
        if desired is _UNSET:
            desired = self.export_for(peer)
        if desired == self._advertised.get(peer):
            self._pending.pop(peer, None)
            return
        self._dispatch_update(peer, desired, et, root_cause)

    def _dispatch_update(
        self,
        peer: ASN,
        desired: Optional[Advertised],
        et: EventType,
        root_cause: Optional[Link],
    ) -> None:
        """Send now if MRAI allows, else coalesce behind the armed timer."""
        if self._pacer.try_send_now(peer, is_withdrawal=desired is None):
            context = self._pending.pop(peer, None)
            if context is not None:
                context.merge(et, root_cause)
                et, root_cause = context.et, context.root_cause
            self._emit_update(peer, desired, et, root_cause)
        else:
            # Timer armed: remember the strongest pending event context
            # for the eventual batched flush.
            context = self._pending.get(peer)
            if context is None:
                context = self._pending[peer] = _PendingContext()
            context.merge(et, root_cause)

    def _flush_peer(self, peer: ASN) -> None:
        """Batched MRAI flush: advertise the peer's net pending change.

        Runs when an armed MRAI timer fires.  All Adj-RIB-Out changes
        that accumulated while the timer was armed are represented by
        the single current ``export_for`` state, so the peer receives
        at most one message per flush.  Coalescing cannot reorder
        deliveries: the flush sends on the same FIFO channel as every
        immediate update, and only intermediate states — never emitted
        messages — are elided.
        """
        if peer not in self.sessions:
            return
        context = self._pending.pop(peer, None)
        desired = self.export_for(peer)
        if desired == self._advertised.get(peer):
            return  # churn cancelled out within the MRAI window
        et = context.et if context else EventType.NO_LOSS
        root_cause = context.root_cause if context else None
        self._emit_update(peer, desired, et, root_cause)

    def _emit_update(
        self,
        peer: ASN,
        desired: Optional[Advertised],
        et: EventType,
        root_cause: Optional[Link],
    ) -> None:
        """Send the one update message that moves a peer to ``desired``."""
        if desired is None:
            del self._advertised[peer]
            self.stats.withdrawals += 1
            self.transport.send(
                self.asn, peer, Withdrawal(root_cause=root_cause), tag=self.tag
            )
        else:
            path, lock = desired
            self._advertised[peer] = desired
            self.stats.announcements += 1
            self.transport.send(
                self.asn,
                peer,
                self._make_announcement(path, et, lock, root_cause),
                tag=self.tag,
            )

    def _make_announcement(
        self,
        path: ASPath,
        et: EventType,
        lock: bool,
        root_cause: Optional[Link],
    ) -> Announcement:
        """Build the outgoing update (R-BGP overrides to attach RCI)."""
        return Announcement(path=path, et=et, lock=lock, root_cause=root_cause)

    # ------------------------------------------------------------------

    def dispose(self) -> None:
        """Break this speaker's reference cycles (see network dispose)."""
        self._pacer.dispose()
        self.export_gate = None
        self.on_best_change = None

    def is_advertising(self, peer: ASN) -> bool:
        """Whether we currently have a route advertised to a peer."""
        return peer in self._advertised

    def gate_refresh_queue(self, peer: ASN) -> None:
        """Hand one gate peer back to the current decision's fan-out.

        For the rare gate peer the ``on_best_change`` listener could
        *not* settle synchronously — a deferred recolor withdrawal —
        so :meth:`schedule_exports` still refreshes that peer in its
        usual sorted position.
        """
        queued = self._gate_refresh_pending
        if queued is None:
            self._gate_refresh_pending = [peer]
        elif peer not in queued:
            queued.append(peer)

    @property
    def forwarding_path(self) -> Optional[ASPath]:
        """Current forwarding path excluding ourselves (trace format)."""
        return self.best.path if self.best is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        best = self.best.path if self.best else None
        return f"BGPSpeaker(asn={self.asn}, tag={self.tag!r}, best={best})"
