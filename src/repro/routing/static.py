"""Direct computation of the stable Gao-Rexford routing solution.

Under the two common policies the paper assumes — *prefer-customer*
(local preference: customer > peer > provider routes) and *valley-free*
export (routes learned from a peer or provider are only exported to
customers) — BGP is safe and converges to a unique stable state once
tie-breaking is deterministic.  That state can be computed in three
passes without simulating any message exchange:

1. **Customer routes** — breadth-first climb along customer-to-provider
   links starting from the destination; an AS has a customer route iff
   a pure downhill path to the destination exists below it.
2. **Peer routes** — one peering step off any AS whose *best* route is
   a customer route (only those are exported to peers).
3. **Provider routes** — Dijkstra-style descent: providers export their
   best route (of any class) to customers.

Tie-breaking matches the dynamic simulator's decision process exactly:
higher relationship preference, then shorter AS path, then lowest
neighbor ASN.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import UnknownASError
from repro.topology.graph import ASGraph
from repro.types import ASN, ASPath, Link, normalize_link


class RouteClass(enum.IntEnum):
    """Gao-Rexford route class, ordered by preference (higher wins)."""

    PROVIDER = 0
    PEER = 1
    CUSTOMER = 2
    ORIGIN = 3


@dataclass(frozen=True)
class StableRoute:
    """One AS's converged best route toward the destination.

    ``path`` is in forwarding order and includes the AS itself:
    ``path[0]`` is the route's owner, ``path[-1]`` the destination.
    """

    path: ASPath
    route_class: RouteClass

    @property
    def owner(self) -> ASN:
        """The AS holding this route."""
        return self.path[0]

    @property
    def next_hop(self) -> Optional[ASN]:
        """Next AS toward the destination (``None`` at the destination)."""
        return self.path[1] if len(self.path) > 1 else None

    @property
    def length(self) -> int:
        """Number of AS hops."""
        return len(self.path) - 1


@dataclass
class StableRoutingState:
    """Converged best routes of every AS for one destination."""

    destination: ASN
    routes: Dict[ASN, StableRoute]

    def route(self, asn: ASN) -> Optional[StableRoute]:
        """Best route of an AS, or ``None`` if unreachable."""
        return self.routes.get(asn)

    def next_hop(self, asn: ASN) -> Optional[ASN]:
        """Converged forwarding next hop of an AS."""
        route = self.routes.get(asn)
        return route.next_hop if route else None


def compute_stable_routes(
    graph: ASGraph,
    destination: ASN,
    *,
    failed_links: Iterable[Link] = (),
    failed_ases: Iterable[ASN] = (),
) -> StableRoutingState:
    """Compute the stable Gao-Rexford solution for one destination.

    ``failed_links`` / ``failed_ases`` are excluded from the topology,
    which lets callers compute post-event converged states without
    mutating the graph.
    """
    if destination not in graph:
        raise UnknownASError(f"destination AS {destination} not in graph")
    down_links: Set[Link] = {normalize_link(a, b) for a, b in failed_links}
    down_ases: Set[ASN] = set(failed_ases)
    if destination in down_ases:
        return StableRoutingState(destination, {})

    def link_up(a: ASN, b: ASN) -> bool:
        return (
            normalize_link(a, b) not in down_links
            and a not in down_ases
            and b not in down_ases
        )

    routes: Dict[ASN, StableRoute] = {
        destination: StableRoute((destination,), RouteClass.ORIGIN)
    }

    # Pass 1: customer routes, BFS by path length up the provider DAG.
    # An AS adopts the best announcement among its customers that hold
    # customer routes (or originate), preferring shorter paths then the
    # lowest customer ASN — identical to the dynamic decision process.
    frontier: List[ASN] = [destination]
    level = 0
    claimed: Set[ASN] = {destination}
    while frontier:
        level += 1
        # Collect candidate (customer -> provider) announcements.
        candidates: Dict[ASN, Tuple[int, ASN]] = {}
        for customer in frontier:
            for provider in graph.providers(customer):
                if provider in claimed or not link_up(customer, provider):
                    continue
                best = candidates.get(provider)
                if best is None or customer < best[1]:
                    candidates[provider] = (level, customer)
        next_frontier: List[ASN] = []
        for provider, (_, via) in sorted(candidates.items()):
            routes[provider] = StableRoute(
                (provider,) + routes[via].path, RouteClass.CUSTOMER
            )
            claimed.add(provider)
            next_frontier.append(provider)
        frontier = next_frontier

    # Pass 2: peer routes.  Only customer-class (or origin) routes are
    # exported across peering links.
    peer_routes: Dict[ASN, StableRoute] = {}
    for asn in graph.ases:
        if asn in routes or asn in down_ases:
            continue
        best: Optional[StableRoute] = None
        for peer in graph.peers(asn):
            exported = routes.get(peer)
            if exported is None or not link_up(asn, peer):
                continue
            if exported.route_class not in (RouteClass.CUSTOMER, RouteClass.ORIGIN):
                continue
            candidate = StableRoute((asn,) + exported.path, RouteClass.PEER)
            if best is None or _better(candidate, best):
                best = candidate
        if best is not None:
            peer_routes[asn] = best
    routes.update(peer_routes)

    # Pass 3: provider routes.  Providers export their best route of any
    # class to customers; resolve by increasing path length (Dijkstra
    # with unit weights) so an AS adopts the shortest available
    # provider-learned path, lowest provider ASN on ties.
    heap: List[Tuple[int, ASN, ASN]] = []  # (candidate length, provider, customer)
    for asn, route in routes.items():
        for customer in graph.customers(asn):
            if customer not in routes and link_up(asn, customer):
                heapq.heappush(heap, (route.length + 1, asn, customer))
    while heap:
        length, via, asn = heapq.heappop(heap)
        if asn in routes or asn in down_ases:
            continue
        routes[asn] = StableRoute((asn,) + routes[via].path, RouteClass.PROVIDER)
        for customer in graph.customers(asn):
            if customer not in routes and link_up(asn, customer):
                heapq.heappush(heap, (length + 1, asn, customer))

    return StableRoutingState(destination, routes)


def _better(a: StableRoute, b: StableRoute) -> bool:
    """Whether route ``a`` beats ``b`` under the decision process."""
    key_a = (-int(a.route_class), a.length, a.path[1] if len(a.path) > 1 else -1)
    key_b = (-int(b.route_class), b.length, b.path[1] if len(b.path) > 1 else -1)
    return key_a < key_b
