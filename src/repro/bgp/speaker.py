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

from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.ribs import AdjRibIn, Route
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig, MRAIPacer
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.types import ASN, ASPath, EventType, Link, Relationship, normalize_link

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
#: as two method calls, and ``export_for`` compares against it per peer
#: (the event types likewise, once per decision or flush).
_CUSTOMER = Relationship.CUSTOMER
_LOSS = EventType.LOSS
_NO_LOSS = EventType.NO_LOSS


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
        self.et = _NO_LOSS
        self.root_cause: Optional[Link] = None

    def merge(self, et: EventType, root_cause: Optional[Link]) -> None:
        if et is _LOSS:
            self.et = _LOSS
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
        trace: ForwardingTrace,
        stats: ProtocolStats,
        export_gate: Optional[ExportGate] = None,
        gate_peers: Optional[Iterable[ASN]] = None,
        on_best_change: Optional[BestChangeListener] = None,
    ) -> None:
        self.asn = asn
        self.graph = graph
        self.engine = engine
        self.transport = transport
        self.config = config or SpeakerConfig()
        self.tag = tag
        self.trace = trace
        self.stats = stats
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
        #: route insertion (which keys the route for every decision)
        #: nor the valley-free export check does graph lookups on the
        #: hot path.
        #: The graph derives the pair once per AS and hands the same
        #: two dicts to every speaker of that AS built on it; nobody
        #: writes them.
        self._pref_table, self._rel_table = graph.neighbor_tables(asn)
        self.adj_rib_in = AdjRibIn()
        self.best: Optional[Route] = None
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

    def fork(
        self,
        engine: Engine,
        transport: Transport,
        trace: ForwardingTrace,
        stats: ProtocolStats,
    ) -> "BGPSpeaker":
        """This speaker's twin in a fork of its (drained) network.

        The twin starts from a shallow copy: it shares what is immutable
        (routes and their keys, path tuples, the sorted-session tuple,
        the export path, the config, the graph and the read-only
        per-neighbor tables) and gets its own copy of every container
        the protocol mutates.  A drained speaker has nothing pending (a
        pending context waits on an armed MRAI timer, and the engine
        forks only with nothing queued).  Not for a gated speaker: its
        gate and listener are bound to the node that owns the original.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.engine = engine
        twin.transport = transport
        twin.trace = trace
        twin.stats = stats
        twin.sessions = self.sessions.copy()
        twin.adj_rib_in = self.adj_rib_in.copy()
        twin._advertised = self._advertised.copy()
        twin._pending = {}
        twin._pacer = self._pacer.fork(engine, twin._flush_peer)
        transport.register_receiver(self.asn, twin.on_message, tag=self.tag)
        return twin

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def originate(self) -> None:
        """Become the origin of the prefix and start advertising."""
        self.is_origin = True
        self._run_decision(_NO_LOSS, None)

    def sorted_sessions(self) -> Tuple[ASN, ...]:
        """Sessions in deterministic (ascending ASN) order, cached."""
        if self._sessions_sorted is None:
            self._sessions_sorted = tuple(sorted(self.sessions))
        return self._sessions_sorted

    def on_message(self, sender: ASN, message) -> None:
        """Process one incoming update from a neighbor.

        One flat pass per delivered message: AS-path loop detection (a
        path through us is refused), the Adj-RIB-In write with the
        route's decision key, then the decision.
        """
        if sender not in self.sessions:
            return  # stale message from a torn-down session
        cls = type(message)
        if cls is Announcement:
            path = message.path
            if self.asn not in path:
                lock = message.lock
                route = Route(
                    path, sender, message.et, lock,
                    (
                        -self._pref_table[sender],
                        0 if lock and self.config.prefer_locked else 1,
                        len(path),
                        sender,
                    ),
                )
                self.adj_rib_in.update(sender, route)
                self._run_decision(message.et, message.root_cause, sender, route)
                return
            # A path through us means the neighbor no longer has an
            # independent route: implicit withdrawal.
        elif cls is not Withdrawal:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")
        self.adj_rib_in.withdraw(sender)
        self._run_decision(message.et, message.root_cause, sender, None)

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
        self._run_decision(_LOSS, normalize_link(self.asn, peer), peer, None)

    def on_session_up(self, peer: ASN) -> None:
        """(Re-)establish a session and advertise our current state."""
        if peer in self.sessions:
            return
        self.sessions.add(peer)
        self._sessions_sorted = None
        self.refresh_peer(peer)

    # ------------------------------------------------------------------
    # Decision process
    # ------------------------------------------------------------------

    def _run_decision(
        self,
        cause_et: EventType,
        root_cause: Optional[Link],
        changed_neighbor: Optional[ASN] = None,
        new_route: Optional[Route] = None,
    ) -> None:
        """Re-select the best route and react to a change.

        ``changed_neighbor`` (when given) asserts that this decision was
        triggered by a single Adj-RIB-In mutation for that neighbor,
        enabling the O(1) incremental update: the stored decision keys
        totally order the candidates (the neighbor ASN is their last
        component), so comparing the changed route's key against the
        best's is exact.  Otherwise the decision is one ``min`` over
        the stored keys (:meth:`AdjRibIn.best`).  Any out-of-band RIB
        mutation (R-BGP's root-cause purge) sets ``_decision_dirty``
        and forces that rescan.
        """
        old = self.best
        if self.is_origin:
            if old is not None:
                return  # the originated route never changes
            new: Optional[Route] = Route((), None)
        elif (
            changed_neighbor is None
            or self._decision_dirty
            or old is None
            or changed_neighbor == old.learned_from
        ):
            self._decision_dirty = False
            new = self.adj_rib_in.best()
        elif new_route is None:
            # Withdrawal of a non-best neighbor: selection unchanged.
            return
        elif new_route.key >= old.key:
            return  # updated route does not beat the current best
        else:
            new = new_route
        if new is old or new == old:
            return
        self.best = new
        self._export_path = None  # rebuilt lazily on the next export
        et_out = _LOSS if cause_et is _LOSS else _NO_LOSS
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
        state = new.path if new is not None else None
        self.trace.record(self.engine._now, self.asn, self.tag, state)

    # ------------------------------------------------------------------
    # Export path
    # ------------------------------------------------------------------

    def export_for(self, peer: ASN) -> Optional[Advertised]:
        """What we should currently be advertising to a peer.

        The one evaluation of the export decision: the valley-free rule
        (routes learned from a peer or provider go to customers only;
        customer-learned and originated routes go to everyone) runs
        inline on the cached per-neighbor relationship table, then the
        gate for the peers it covers.  The advertised path tuple is
        shared across peers via :attr:`_export_path` — one allocation
        per best-route change rather than one per evaluation.
        """
        best = self.best
        if best is None or peer not in self.sessions:
            return None
        learned_from = best.learned_from
        if learned_from == peer:
            return None  # never reflect a route back to its announcer
        rel_table = self._rel_table
        if rel_table[peer] is not _CUSTOMER:
            # Peer/provider-learned routes are exported to customers only.
            if learned_from is not None and (
                rel_table[learned_from] is not _CUSTOMER
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
        et: EventType = _NO_LOSS,
        root_cause: Optional[Link] = None,
    ) -> None:
        """Queue (MRAI-paced) re-advertisement to every stale peer.

        One pass over the sessions in ascending ASN order — the send
        order, and hence the order of the transport's delay draws.
        Each peer takes :meth:`refresh_peer`'s step inline: evaluate
        :meth:`export_for`, compare with the Adj-RIB-Out, then drop the
        peer's pending context (nothing changed) or dispatch the
        update.  A gated speaker's :attr:`gate_peers` were refreshed by
        its ``on_best_change`` listener just before this fan-out, so
        they are passed over, except those the listener handed back
        through :meth:`gate_refresh_queue`.
        """
        gate_peers = self.gate_peers
        queued = self._gate_refresh_pending or ()
        self._gate_refresh_pending = None
        export_for = self.export_for
        advertised = self._advertised
        pending = self._pending
        for peer in self.sorted_sessions():
            if peer in gate_peers and peer not in queued:
                continue
            desired = export_for(peer)
            if desired == advertised.get(peer):
                if pending:
                    pending.pop(peer, None)
            else:
                self._dispatch_update(peer, desired, et, root_cause)

    def refresh_peer(
        self,
        peer: ASN,
        et: EventType = _NO_LOSS,
        root_cause: Optional[Link] = None,
        *,
        desired: object = _UNSET,
    ) -> None:
        """Re-advertise to one peer if our exported state went stale.

        STAMP's node-level coordination calls this when the color
        assignment of a provider changes without this process's own
        best route changing (and a session coming up, for the new
        peer); callers that already evaluated :meth:`export_for` in the
        same synchronous step may pass the result via ``desired`` to
        skip re-evaluating it (and, for gated speakers, re-invoking the
        gate).  :meth:`schedule_exports` takes this same step inline
        for every peer of its fan-out.

        The desired Adj-RIB-Out state is computed exactly once; when
        MRAI allows an immediate send the update goes out synchronously
        with that precomputed state (no second export evaluation), and
        otherwise the peer is marked pending and the armed MRAI timer
        absorbs every further change until it fires — at which point
        :meth:`_flush_peer` re-reads the *latest* state, so a
        withdraw+announce churn pair inside one MRAI window collapses
        into the single message (or no message) describing the net
        change.
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
        """Send now if MRAI allows, else coalesce behind the armed timer.

        A withdrawal is never rate-limited, so it never asks the pacer
        (and never restarts the peer's interval).
        """
        if desired is None or self._pacer.try_send_now(peer):
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
        if context is None:
            self._emit_update(peer, desired, _NO_LOSS, None)
        else:
            self._emit_update(peer, desired, context.et, context.root_cause)

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
            message = Withdrawal(_LOSS, root_cause)
        else:
            self._advertised[peer] = desired
            self.stats.announcements += 1
            message = Announcement(desired[0], et, desired[1], root_cause)
        self.transport.send(self.asn, peer, message, self.tag)

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
