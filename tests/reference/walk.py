"""Scalar walk classification: the successor table's reference.

A data-plane snapshot induces a deterministic successor function on
walk states (for BGP a state is just the current AS; for STAMP it is
``(AS, packet color, switched?)``; for R-BGP it includes pinned
failover paths).  Classifying every AS's packet fate then reduces to
outcome propagation over a functional graph: a walk is DELIVERED if it
reaches the destination, BLACKHOLE if it reaches a state with no
successor, and LOOP if it revisits a state.

Here each plane's semantics is written as closures over the snapshot
dict (a :class:`WalkSpec`), and :func:`classify_functional_graph` runs
per-source iterative walks over them.  :func:`classify` is the scalar
reference the differential tests pin
:class:`repro.forwarding.walk.SuccessorTable` to; :func:`classify_batch`
asks the plane's table the same question.  An AS the snapshot holds no
key for has no routes, so every state of it blackholes (the
destination's deliver) — what the table computes for a row it interns
on demand.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.forwarding.bgp_plane import BGPDataPlane
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY, RBGPDataPlane
from repro.forwarding.stamp_plane import (
    _BLUE,
    _BLUE_UNSTABLE,
    _RED,
    _RED_UNSTABLE,
    STAMPDataPlane,
)
from repro.types import ASN, ASPath, Color, Outcome, normalize_link

#: Successor function: next walk state, or ``None`` when the packet is
#: dropped (blackhole).
Successor = Callable[[Hashable], Optional[Hashable]]
#: Terminal predicate: ``True`` when the packet has been delivered.
Delivered = Callable[[Hashable], bool]
#: Start mapping: source AS -> (initial walk state, immediate outcome).
#: Exactly one of the two is non-``None``; an immediate outcome means
#: the source never enters the walk (e.g. STAMP's routeless sources).
Start = Callable[[Hashable], Tuple[Optional[Hashable], Optional[Outcome]]]


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


def _bgp_walk_spec(plane, state, failed_links, failed_ases) -> WalkSpec:
    destination = plane.destination
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


#: Walk states: plain AS for primary forwarding, or a pinned position
#: ``('pin', path, index)`` while riding a failover path.
_PinState = Tuple[str, ASPath, int]


def _rbgp_walk_spec(plane, state, failed_links, failed_ases) -> WalkSpec:
    destination = plane.destination
    rci = plane.rci
    state_get = state.get
    local_detectors = plane._local_detectors(failed_links, failed_ases)

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


#: Walk state: (AS, packet color, already switched?).
_WalkState = Tuple[ASN, Color, bool]


def _stamp_walk_spec(plane, state, failed_links, failed_ases) -> WalkSpec:
    destination = plane.destination
    state_get = state.get
    red, blue = _RED, _BLUE
    red_unstable, blue_unstable = _RED_UNSTABLE, _BLUE_UNSTABLE

    # The failure sets are fixed for the spec's lifetime, so the
    # per-hop link check reduces to one membership test on a
    # pre-expanded ordered-pair set (no normalize_link call), and
    # vanishes entirely in the failure-free case.
    no_failures = not failed_links and not failed_ases
    blocked_pairs = frozenset(
        pair
        for a, b in failed_links
        for pair in ((a, b), (b, a))
    )

    def usable(asn: ASN, path) -> bool:
        return bool(path) and (
            no_failures
            or (
                path[0] not in failed_ases
                and asn not in failed_ases
                and (asn, path[0]) not in blocked_pairs
            )
        )

    def successor(walk_state) -> Optional[_WalkState]:
        asn, color, switched = walk_state
        path = state_get((asn, color))
        own_usable = usable(asn, path)
        if own_usable and not state_get(
            (asn, red_unstable if color is red else blue_unstable), False
        ):
            return (path[0], color, switched)
        if not switched:
            other = blue if color is red else red
            other_path = state_get((asn, other))
            if usable(asn, other_path):
                return (other_path[0], other, True)
        if own_usable:
            # No stable alternative: ride the unstable same-color
            # route rather than drop.
            return (path[0], color, switched)
        return None

    def delivered(walk_state) -> bool:
        return walk_state[0] == destination

    def start(asn: ASN):
        if asn == destination:
            return None, Outcome.DELIVERED
        blue_usable = usable(asn, state_get((asn, blue)))
        if blue_usable and not state_get((asn, blue_unstable), False):
            return (asn, blue, False), None
        red_usable = usable(asn, state_get((asn, red)))
        if red_usable and not state_get((asn, red_unstable), False):
            return (asn, red, False), None
        if blue_usable:
            # Unstable blue beats unusable-or-unstable red.
            return (asn, blue, False), None
        if red_usable:
            return (asn, red, False), None
        return None, Outcome.BLACKHOLE

    return WalkSpec(successor, delivered, start)


#: Each plane class's scalar walk semantics.
_WALK_SPECS = {
    BGPDataPlane: _bgp_walk_spec,
    RBGPDataPlane: _rbgp_walk_spec,
    STAMPDataPlane: _stamp_walk_spec,
}


def classify(
    plane,
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
    spec = _WALK_SPECS[type(plane)](plane, state, failed_links, failed_ases)
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


def source_outcomes(table, asns: Iterable) -> Dict[Hashable, Outcome]:
    """Packet fate of the given sources in ``table`` (a
    :class:`~repro.forwarding.walk.SuccessorTable`) as of its last
    collection.  A source the table has never seen has no routes:
    BLACKHOLE."""
    return {
        asn: Outcome.BLACKHOLE if i is None else table.source_outcome[i]
        for asn, i in ((asn, table.pos.get(asn)) for asn in asns)
    }


def classify_batch(
    plane,
    state: Dict,
    ases: Iterable,
    *,
    failed_links=frozenset(),
    failed_ases=frozenset(),
) -> Dict[Hashable, Outcome]:
    """Full-scan classification through the successor table.

    Agrees with :func:`classify` on every requested source but
    resolves each walk state exactly once; failed sources are
    skipped exactly as ``classify`` skips them.
    """
    table = plane._session_table(state, failed_links, failed_ases)
    return source_outcomes(
        table, (asn for asn in ases if asn not in failed_ases)
    )
