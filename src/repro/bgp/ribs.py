"""Routing information bases of one speaker (single prefix).

``Route.path`` follows the announcement convention (announcer-first):
``path[0]`` is the neighbor the route was learned from, ``path[-1]``
the origin.  The speaker's own ASN is *not* on the path; the full
forwarding path from AS X is ``(X,) + route.path``.  An originated
route has an empty path and no ``learned_from``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.types import ASN, ASPath, EventType

#: ``(-pref, lock rank, length, neighbor)``; the minimum is the best.
DecisionKey = Tuple[int, int, int, ASN]


class Route:
    """One usable route, as stored in a RIB.

    A hand-written ``__slots__`` class rather than a frozen dataclass:
    one Route is allocated per accepted announcement, and the frozen
    dataclass ``__init__`` (one ``object.__setattr__`` per field) was a
    measurable slice of the message hot path.  Semantics are unchanged
    — equality and hashing cover ``(path, learned_from, et, lock)``
    exactly as the former dataclass's compare fields did, and instances
    must be treated as immutable (they are shared between RIBs, the
    decision process, and advertised-state caches).

    ``key`` is the route's decision key ``(-pref, lock rank, length,
    neighbor)``: the minimum over a speaker's routes is its best route.
    The receiving speaker computes it once, at Adj-RIB-In insertion,
    from its preference table and its ``prefer_locked`` flag, so no
    decision reads the graph or builds a key.  The neighbor ASN is the
    last component, so keys are unique within one RIB and the order is
    total.  It is derived state (a function of the speaker and of the
    route), so it is excluded from equality; routes built elsewhere
    (the origin's own, tests) carry ``None``.

    The key is fixed at insertion, which is sound because a link's
    relationship cannot change: a speaker reads the graph when it is
    built, which freezes the graph for good.  Topology events in this
    simulator go through the transport (session resets withdraw the
    affected routes).
    """

    __slots__ = ("path", "learned_from", "et", "lock", "key")

    def __init__(
        self,
        path: ASPath,
        learned_from: Optional[ASN],
        et: EventType = EventType.NO_LOSS,
        lock: bool = False,
        key: Optional[DecisionKey] = None,
    ) -> None:
        if learned_from is None:
            if path:
                raise ValueError("originated routes must have an empty path")
        elif not path or path[0] != learned_from:
            raise ValueError("route path must start at the announcing neighbor")
        self.path = path
        self.learned_from = learned_from
        self.et = et
        self.lock = lock
        self.key = key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self.path == other.path
            and self.learned_from == other.learned_from
            and self.et == other.et
            and self.lock == other.lock
        )

    def __hash__(self) -> int:
        return hash((self.path, self.learned_from, self.et, self.lock))

    def __repr__(self) -> str:
        return (
            f"Route(path={self.path!r}, learned_from={self.learned_from!r}, "
            f"et={self.et!r}, lock={self.lock!r})"
        )

    @property
    def is_origin(self) -> bool:
        """Whether this is the destination's own (originated) route."""
        return self.learned_from is None

    @property
    def length(self) -> int:
        """AS-path length used by the decision process."""
        return len(self.path)


class AdjRibIn:
    """Per-neighbor store of the most recent accepted announcement.

    Order-free: every stored route carries its decision key, whose last
    component is the neighbor ASN, so the best route is one ``min``
    over the keys and no view of the RIB promises an order.
    """

    def __init__(self) -> None:
        self._routes: Dict[ASN, Route] = {}

    def update(self, neighbor: ASN, route: Route) -> None:
        """Replace the route learned from a neighbor."""
        self._routes[neighbor] = route

    def withdraw(self, neighbor: ASN) -> bool:
        """Remove the neighbor's route; returns whether one existed."""
        return self._routes.pop(neighbor, None) is not None

    def get(self, neighbor: ASN) -> Optional[Route]:
        """Route learned from a neighbor, if any."""
        return self._routes.get(neighbor)

    def copy(self) -> "AdjRibIn":
        """An independent RIB holding the same (immutable) routes."""
        twin = AdjRibIn()
        twin._routes = self._routes.copy()
        return twin

    def best(self) -> Optional[Route]:
        """The route with the least decision key, or ``None``."""
        return min(self._routes.values(), key=_decision_key, default=None)

    def routes(self) -> Iterable[Route]:
        """A live view of the stored routes, in no particular order."""
        return self._routes.values()

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._routes)

    def __contains__(self, neighbor: ASN) -> bool:
        return neighbor in self._routes


_decision_key = attrgetter("key")
