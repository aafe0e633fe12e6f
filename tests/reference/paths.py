"""Valley-free path utilities.

Paths here are *forwarding order*: ``path[0]`` is the source AS and
``path[-1]`` the destination.  Under the valley-free export rule a path
consists of an uphill portion (customer-to-provider steps), at most one
peering step, and a downhill portion (provider-to-customer steps).  The
paper's key relaxation (Lemmas 3.1/3.2) is that complementary routes
only need to be node disjoint in their *downhill* portions.

No module of the package computes with these: they are the oracle the
tests check forwarding paths against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError
from repro.topology.graph import ASGraph
from repro.types import ASN, Link, Relationship


def path_is_loop_free(path: Sequence[ASN]) -> bool:
    """Whether no AS appears twice on the path."""
    return len(set(path)) == len(path)


def _step_kinds(graph: ASGraph, path: Sequence[ASN]) -> List[Relationship]:
    """Relationship of each hop's far end, walking source to destination."""
    kinds: List[Relationship] = []
    for u, v in zip(path, path[1:]):
        kinds.append(graph.relationship(u, v))
    return kinds


def is_valley_free(graph: ASGraph, path: Sequence[ASN]) -> bool:
    """Whether the path obeys the valley-free export rule.

    Permitted shape: zero or more uphill (to-provider) steps, then at
    most one peering step, then zero or more downhill (to-customer)
    steps.  Paths with unknown links raise :class:`UnknownLinkError`.
    """
    if len(path) <= 1:
        return True
    if not path_is_loop_free(path):
        return False
    # Phases: 0 = climbing, 1 = just crossed a peer link, 2 = descending.
    phase = 0
    for kind in _step_kinds(graph, path):
        if kind is Relationship.PROVIDER:
            if phase != 0:
                return False
        elif kind is Relationship.PEER:
            if phase != 0:
                return False
            phase = 1
        else:  # stepping down to a customer
            phase = 2
    return True


def split_uphill_downhill(
    graph: ASGraph, path: Sequence[ASN]
) -> Tuple[Tuple[ASN, ...], Optional[Link], Tuple[ASN, ...]]:
    """Split a valley-free path into (uphill, peer-link, downhill).

    The uphill portion is the maximal source-side prefix connected by
    customer-to-provider links (including both endpoints of each such
    link); the downhill portion is the destination-side suffix connected
    by provider-to-customer links.  The middle peering link, if any, is
    returned as an ``(a, b)`` pair in walk order.  Portions may be empty
    tuples.  Raises :class:`TopologyError` for non-valley-free paths.
    """
    if not is_valley_free(graph, path):
        raise TopologyError(f"path {tuple(path)} is not valley-free")
    if len(path) <= 1:
        return (), None, ()
    kinds = _step_kinds(graph, path)
    n_up = 0
    while n_up < len(kinds) and kinds[n_up] is Relationship.PROVIDER:
        n_up += 1
    peer_link: Optional[Link] = None
    rest = n_up
    if rest < len(kinds) and kinds[rest] is Relationship.PEER:
        peer_link = (path[rest], path[rest + 1])
        rest += 1
    uphill = tuple(path[: n_up + 1]) if n_up > 0 else ()
    downhill = tuple(path[rest:]) if rest < len(kinds) else ()
    return uphill, peer_link, downhill


def downhill_nodes(graph: ASGraph, path: Sequence[ASN]) -> Set[ASN]:
    """All ASes in the downhill portion of a valley-free path.

    Matches the paper's definition: the provider-to-customer links of
    the path "together with the ASes at the two ends of each link".
    """
    _, _, downhill = split_uphill_downhill(graph, path)
    return set(downhill)


def downhill_node_disjoint(
    graph: ASGraph,
    path_a: Sequence[ASN],
    path_b: Sequence[ASN],
) -> bool:
    """Whether the downhill portions share no AS besides the endpoints.

    The shared source and shared destination (when the two paths have
    the same one) are always allowed, mirroring the paper's "no shared
    nodes except source and destination".
    """
    nodes_a = downhill_nodes(graph, path_a)
    nodes_b = downhill_nodes(graph, path_b)
    allowed: Set[ASN] = set()
    if path_a and path_b:
        if path_a[0] == path_b[0]:
            allowed.add(path_a[0])
        if path_a[-1] == path_b[-1]:
            allowed.add(path_a[-1])
    return not ((nodes_a & nodes_b) - allowed)


def node_disjoint(
    path_a: Sequence[ASN],
    path_b: Sequence[ASN],
) -> bool:
    """Full node disjointness, endpoints excepted."""
    if not path_a or not path_b:
        return True
    allowed: Set[ASN] = set()
    if path_a[0] == path_b[0]:
        allowed.add(path_a[0])
    if path_a[-1] == path_b[-1]:
        allowed.add(path_a[-1])
    return not ((set(path_a) & set(path_b)) - allowed)
