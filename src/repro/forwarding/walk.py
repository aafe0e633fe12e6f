"""Data-plane walk classification.

A data-plane snapshot induces a deterministic successor function on
walk states (for BGP a state is just the current AS; for STAMP it is
``(AS, packet color, switched?)``; for R-BGP it includes pinned
failover paths).  Classifying every AS's packet fate then reduces to
outcome propagation over a functional graph: a walk is DELIVERED if it
reaches the destination, BLACKHOLE if it reaches a state with no
successor, and LOOP if it revisits a state.

The semantics are written down twice, on purpose:

* :func:`classify_functional_graph` over a plane's :class:`WalkSpec`
  closures is the *scalar reference* — per-source iterative walks that
  read the snapshot dict directly.  :meth:`WalkClassifier.classify`
  and the ``_reference_*`` analyzers use it, and the differential
  tests compare the engine below against it.
* :class:`SuccessorTable` is the *engine*: every plane compiles its
  snapshot onto ``k`` integer walk states per AS (one for BGP and
  R-BGP, four for STAMP), the table resolves every state's outcome
  once, and from then on :meth:`SuccessorTable.update` /
  :meth:`SuccessorTable.apply_boundary` re-derive only the rows whose
  inputs moved while :meth:`SuccessorTable.collect_transitions`
  re-resolves exactly the reverse closure of the changed entries and
  reports the sources whose packet fate changed.  A plane supplies
  only what is plane-specific: which snapshot keys it stores and what
  walks can observe of them (:meth:`SuccessorTable._project`), and how
  one AS's successor entries and start state derive from its stored
  projections and the failure sets (:meth:`SuccessorTable._derive`).

An AS named by a key or a next hop but absent from the table is
interned on demand as a fresh row — no routes, so every state
blackholes (the destination's row delivers) — which is exactly what
the scalar walk computes for such a state, so every snapshot is
representable.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.types import Outcome

#: Successor function: next walk state, or ``None`` when the packet is
#: dropped (blackhole).
Successor = Callable[[Hashable], Optional[Hashable]]
#: Terminal predicate: ``True`` when the packet has been delivered.
Delivered = Callable[[Hashable], bool]
#: Start mapping: source AS -> (initial walk state, immediate outcome).
#: Exactly one of the two is non-``None``; an immediate outcome means
#: the source never enters the walk (e.g. STAMP's routeless sources).
Start = Callable[[Hashable], Tuple[Optional[Hashable], Optional[Outcome]]]

#: Terminal successor entries of a :class:`SuccessorTable`.
DELIVERED_SID = -2
BLACKHOLE_SID = -1

_DELIVERED = Outcome.DELIVERED
_BLACKHOLE = Outcome.BLACKHOLE
_LOOP = Outcome.LOOP


def _start_at_source(asn: Hashable):
    """Default start: the walk state of a source is the AS itself."""
    return asn, None


class WalkSpec(NamedTuple):
    """One snapshot's scalar walk semantics (closures over the state)."""

    successor: Successor
    delivered: Delivered
    start: Start = _start_at_source


def classify_functional_graph(
    starts: Iterable[Hashable],
    successor: Successor,
    delivered: Delivered,
    *,
    memo: Optional[Dict[Hashable, Outcome]] = None,
) -> Dict[Hashable, Outcome]:
    """Classify the walk outcome from each start state.

    Shares ``memo`` across calls for amortization within one snapshot.
    Runs iteratively (no recursion limits) with on-path cycle detection:
    any state that reaches a cycle is classified LOOP.
    """
    outcomes: Dict[Hashable, Outcome] = memo if memo is not None else {}
    for start in starts:
        if start in outcomes:
            continue
        path: list = []
        on_path: Dict[Hashable, int] = {}
        state = start
        result: Outcome
        while True:
            if state in outcomes:
                result = outcomes[state]
                break
            if state in on_path:
                # Found a new cycle: everything on it (and leading into
                # it) loops.
                result = Outcome.LOOP
                break
            if delivered(state):
                outcomes[state] = Outcome.DELIVERED
                result = Outcome.DELIVERED
                break
            on_path[state] = len(path)
            path.append(state)
            nxt = successor(state)
            if nxt is None:
                result = Outcome.BLACKHOLE
                break
            state = nxt
        for visited in path:
            outcomes[visited] = result
    return outcomes


class SuccessorTable:
    """A snapshot's functional graph as flat integer tables.

    Layout: AS ``asns[i]`` owns walk states ``k*i .. k*i + k-1``.
    ``succ`` holds each state's next state index, :data:`BLACKHOLE_SID`
    or :data:`DELIVERED_SID`; ``preds`` is the reverse adjacency;
    ``state_outcome`` the resolved fate of every state;
    ``start_sid`` / ``source_outcome`` each source's start state (``-1``
    for an immediate blackhole) and packet fate.  ``proj`` holds one
    column per stored snapshot projection (what walks can observe of a
    key's value — a route's next hop, a flag, a failover entry list);
    the first ``hop_slots`` columns are raw next hops and are indexed
    in reverse (``hop_preds``) so a failure-set delta finds the rows
    whose next hop it toggled.

    One instance follows one snapshot lineage: :meth:`update` applies
    a changed key, :meth:`apply_boundary` new failure sets; both mark
    the entries they really changed ``dirty``, and
    :meth:`collect_transitions` flushes.  Subclasses set ``k``,
    ``slots``, ``hop_slots`` and implement :meth:`_project` and
    :meth:`_derive`.
    """

    #: Walk states per AS.
    k = 1
    #: Stored projection columns per AS.
    slots = 1
    #: How many leading columns hold raw next hops.
    hop_slots = 1

    def __init__(self, plane, state: Dict, failed_links, failed_ases) -> None:
        self.plane = plane
        self.destination = plane.destination
        self.asns: List = []
        self.pos: Dict[Hashable, int] = {}
        self.proj: Tuple[list, ...] = tuple([] for _ in range(self.slots))
        self.hop_preds: Dict[Hashable, Set[int]] = {}
        self.succ: List[int] = []
        self.preds: Dict[int, Set[int]] = {}
        self.state_outcome: List[Outcome] = []
        self.start_sid: List[int] = []
        self.source_outcome: List[Outcome] = []
        self.dirty: Set[int] = set()
        self.start_dirty: Set[int] = set()
        self._set_failures(failed_links, failed_ases)
        self.dest_i = self._intern(self.destination)
        store = self._store
        for key, value in state.items():
            store(key, value)
        for i in range(len(self.asns)):
            self._refresh(i)
        # Untouched entries already hold their resolved default (a
        # routeless state blackholes) and every other entry is dirty,
        # so the dirty set is its own reverse closure.
        self._rescan(self.dirty)
        out = self.state_outcome
        self.source_outcome = [
            _BLACKHOLE if sid < 0 else out[sid] for sid in self.start_sid
        ]
        self.start_dirty = set()

    # ------------------------------------------------------------------
    # Plane hooks
    # ------------------------------------------------------------------

    def _project(self, tag, value) -> Optional[Tuple[int, object]]:
        """``(column, walk-observable projection)`` of one key's value.

        ``None`` for keys the plane's walks never read.
        """
        raise NotImplementedError

    def _derive(self, i: int) -> Tuple[int, ...]:
        """Row ``i``'s ``(start state, successor entry × k)``.

        A pure function of the row's stored projections and the
        failure sets; the start state is ``-1`` for a source that
        blackholes without entering the walk.
        """
        raise NotImplementedError

    def _boundary_rows(self, changed_pairs, toggled_ases) -> Iterable[int]:
        """Rows whose derivation a failure-set delta can change.

        :meth:`_usable` consults the forwarding AS (an endpoint of any
        changed link that matters, or itself toggled) and the raw next
        hop (found through the reverse hop index).  Planes whose rows
        read the failure sets any other way override this.
        """
        affected: Set[int] = set()
        pos_get = self.pos.get
        for a, _b in changed_pairs:  # both orientations are present
            i = pos_get(a)
            if i is not None:
                affected.add(i)
        hop_preds_get = self.hop_preds.get
        for asn in toggled_ases:
            i = pos_get(asn)
            if i is not None:
                affected.add(i)
            affected.update(hop_preds_get(asn, ()))
        return affected

    # ------------------------------------------------------------------
    # Rows and failure sets
    # ------------------------------------------------------------------

    def _intern(self, asn) -> int:
        """Append a routeless row for ``asn`` and return its index."""
        i = self.pos[asn] = len(self.asns)
        self.asns.append(asn)
        k = self.k
        if asn == self.destination:
            sid, outcome = DELIVERED_SID, _DELIVERED
        else:
            sid, outcome = BLACKHOLE_SID, _BLACKHOLE
        self.succ.extend([sid] * k)
        self.state_outcome.extend([outcome] * k)
        self.start_sid.append(k * i)
        self.source_outcome.append(outcome)
        for column in self.proj:
            column.append(None)
        return i

    def _set_failures(self, failed_links, failed_ases) -> None:
        self.failed_ases = failed_ases
        #: Both orientations of every failed link: the per-hop link
        #: check is one membership test, no ``normalize_link`` call.
        self.blocked_pairs = frozenset(
            pair for a, b in failed_links for pair in ((a, b), (b, a))
        )
        self.check_links = bool(failed_links) or bool(failed_ases)

    def _link_ok(self, a, b) -> bool:
        """Can ``a`` hand a packet to ``b`` under the failure sets?"""
        return not self.check_links or (
            b not in self.failed_ases
            and a not in self.failed_ases
            and (a, b) not in self.blocked_pairs
        )

    def _usable(self, asn, hop) -> int:
        """Row of a raw next hop, or ``-1`` when ``asn`` cannot use it.

        :meth:`_link_ok` spelled inline: this runs per derived hop on
        the per-change path.
        """
        if hop is None or (
            self.check_links
            and (
                hop in self.failed_ases
                or asn in self.failed_ases
                or (asn, hop) in self.blocked_pairs
            )
        ):
            return -1
        j = self.pos.get(hop)
        return self._intern(hop) if j is None else j

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _store(self, key, value) -> int:
        """Store one key's projection; its row, or ``-1`` if unchanged.

        The stored projection is all any walk observes of the value,
        so an unchanged one (a re-routed path with the same next hop,
        a key that flapped back) needs no derivation.
        """
        projected = self._project(key[1], value)
        if projected is None:
            return -1
        slot, seen = projected
        i = self.pos.get(key[0])
        if i is None:
            i = self._intern(key[0])
        column = self.proj[slot]
        old = column[i]
        if old == seen:
            return -1
        column[i] = seen
        if slot < self.hop_slots:
            hop_preds = self.hop_preds
            if old is not None:
                # The reverse edge survives while a sibling hop column
                # still points at the same AS.
                for hops in self.proj[: self.hop_slots]:
                    if hops[i] == old:
                        break
                else:
                    hop_preds[old].discard(i)
            if seen is not None:
                entries = hop_preds.get(seen)
                if entries is None:
                    hop_preds[seen] = {i}
                else:
                    entries.add(i)
        return i

    def update(self, key, value) -> bool:
        """Apply one snapshot key; ``False`` when walks cannot tell."""
        i = self._store(key, value)
        if i < 0:
            return False
        self._refresh(i)
        return True

    def apply_boundary(self, failed_links, failed_ases) -> None:
        """Switch to new failure sets (an episode phase boundary).

        Re-derives exactly the rows :meth:`_boundary_rows` names; only
        entries that really change are marked dirty, so the next
        :meth:`collect_transitions` follows the same discipline as a
        trace change.
        """
        old_blocked = self.blocked_pairs
        old_failed = self.failed_ases
        self._set_failures(failed_links, failed_ases)
        if self.blocked_pairs == old_blocked and failed_ases == old_failed:
            return
        refresh = self._refresh
        for i in self._boundary_rows(
            old_blocked ^ self.blocked_pairs, old_failed ^ failed_ases
        ):
            refresh(i)

    def _refresh(self, i: int) -> None:
        """Re-derive one row, marking the entries that changed."""
        if i == self.dest_i:
            return  # the destination's states deliver, whatever it stores
        start, *entries = self._derive(i)
        if start != self.start_sid[i]:
            self.start_sid[i] = start
            self.start_dirty.add(i)
        succ = self.succ
        sid = self.k * i
        for new in entries:
            old = succ[sid]
            if old != new:
                preds = self.preds
                if old >= 0:
                    preds[old].discard(sid)
                if new >= 0:
                    sources = preds.get(new)
                    if sources is None:
                        preds[new] = {sid}
                    else:
                        sources.add(sid)
                succ[sid] = new
                self.dirty.add(sid)
            sid += 1

    # ------------------------------------------------------------------
    # Outcome propagation
    # ------------------------------------------------------------------

    def _rescan(self, remaining: Set[int]) -> None:
        """Re-resolve the outcomes of an invalidated state set.

        States outside ``remaining`` hold valid outcomes (they cannot
        reach a changed edge); each walk runs until it leaves the set,
        terminates, or closes a cycle, then back-propagates.
        """
        out = self.state_outcome
        succ = self.succ
        for sid0 in list(remaining):
            if sid0 not in remaining:
                continue
            path: List[int] = []
            on_path: Dict[int, int] = {}
            cur = sid0
            while True:
                if cur not in remaining:
                    outcome = out[cur]
                    break
                if cur in on_path:
                    # Every cycle state reaches exactly the cycle.
                    outcome = _LOOP
                    cut = on_path[cur]
                    for sid in path[cut:]:
                        out[sid] = _LOOP
                        remaining.discard(sid)
                    del path[cut:]
                    break
                on_path[cur] = len(path)
                path.append(cur)
                nxt = succ[cur]
                if nxt < 0:
                    outcome = _DELIVERED if nxt == DELIVERED_SID else _BLACKHOLE
                    break
                cur = nxt
            for sid in reversed(path):
                out[sid] = outcome
                remaining.discard(sid)

    def collect_transitions(self) -> List[Tuple[Hashable, Outcome]]:
        """Flush pending invalidations; report changed source fates.

        Invalidates the reverse closure of the dirty states,
        re-resolves it, and returns ``(source AS, new outcome)`` for
        exactly the sources whose packet fate differs from the last
        collection.
        """
        dirty = self.dirty
        start_dirty = self.start_dirty
        transitions: List[Tuple[Hashable, Outcome]] = []
        if not dirty and not start_dirty:
            return transitions
        start_sid = self.start_sid
        if dirty:
            closure = set(dirty)
            closure_add = closure.add
            stack = list(dirty)
            stack_append = stack.append
            preds_get = self.preds.get
            while stack:
                entries = preds_get(stack.pop())
                if entries:
                    for pred in entries:
                        if pred not in closure:
                            closure_add(pred)
                            stack_append(pred)
            # _rescan consumes its working set as states resolve, so it
            # gets a copy; the closure itself then seeds the start-state
            # checks below.
            self._rescan(set(closure))
            k = self.k
            for sid in closure:
                if start_sid[sid // k] == sid:
                    start_dirty.add(sid // k)
            self.dirty = set()
        out = self.state_outcome
        source_outcome = self.source_outcome
        asns = self.asns
        for i in start_dirty:
            sid = start_sid[i]
            new = _BLACKHOLE if sid < 0 else out[sid]
            if new is not source_outcome[i]:
                source_outcome[i] = new
                transitions.append((asns[i], new))
        self.start_dirty = set()
        return transitions

    def source_outcomes(self, asns: Iterable) -> Dict[Hashable, Outcome]:
        """Packet fate of the given sources as of the last collection.

        A source the table has never seen has no routes: BLACKHOLE.
        """
        pos_get = self.pos.get
        source_outcome = self.source_outcome
        result: Dict[Hashable, Outcome] = {}
        for asn in asns:
            i = pos_get(asn)
            result[asn] = _BLACKHOLE if i is None else source_outcome[i]
        return result


class WalkClassifier:
    """Base class for protocol-specific data planes.

    Subclasses define how a control-plane snapshot (the trace's state
    dict) maps to scalar walk closures (:meth:`_walk_spec`) and to a
    :class:`SuccessorTable` (:meth:`_session_table`).
    """

    def __init__(self, destination) -> None:
        self.destination = destination

    def _walk_spec(
        self,
        state: Dict,
        failed_links: FrozenSet,
        failed_ases: FrozenSet,
    ) -> WalkSpec:
        """Scalar walk semantics for one snapshot."""
        raise NotImplementedError

    def _session_table(
        self,
        state: Dict,
        failed_links: FrozenSet,
        failed_ases: FrozenSet,
    ) -> SuccessorTable:
        """The plane's successor table over one snapshot, resolved."""
        raise NotImplementedError

    def classify(
        self,
        state: Dict,
        ases: Iterable,
        *,
        failed_links=frozenset(),
        failed_ases=frozenset(),
    ) -> Dict[Hashable, Outcome]:
        """Outcome per source AS under the given snapshot.

        The scalar reference: per-source walks over the plane's
        closures.  Failed sources are skipped.
        """
        spec = self._walk_spec(state, failed_links, failed_ases)
        outcomes: Dict[Hashable, Outcome] = {}
        memo: Dict[Hashable, Outcome] = {}
        for asn in ases:
            if asn in failed_ases:
                continue
            start_state, immediate = spec.start(asn)
            if start_state is None:
                outcomes[asn] = immediate
                continue
            classify_functional_graph(
                [start_state], spec.successor, spec.delivered, memo=memo
            )
            outcomes[asn] = memo[start_state]
        return outcomes

    def classify_batch(
        self,
        state: Dict,
        ases: Iterable,
        *,
        failed_links=frozenset(),
        failed_ases=frozenset(),
    ) -> Dict[Hashable, Outcome]:
        """Full-scan classification through the successor table.

        Agrees with :meth:`classify` on every requested source but
        resolves each walk state exactly once; failed sources are
        skipped exactly as ``classify`` skips them.
        """
        table = self._session_table(state, failed_links, failed_ases)
        return table.source_outcomes(
            asn for asn in ases if asn not in failed_ases
        )
