"""Routing information bases of one speaker (single prefix).

``Route.path`` follows the announcement convention (announcer-first):
``path[0]`` is the neighbor the route was learned from, ``path[-1]``
the origin.  The speaker's own ASN is *not* on the path; the full
forwarding path from AS X is ``(X,) + route.path``.  An originated
route has an empty path and no ``learned_from``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.types import ASN, ASPath, EventType


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

    ``pref`` optionally carries the local preference of the announcing
    neighbor, computed once at Adj-RIB-In insertion from the speaker's
    preference table; the decision process then needs no graph lookups.
    It is derived state (a function of the speaker and ``learned_from``),
    so it is excluded from equality.  When set, ``base_key`` holds the
    precomputed lock-independent sort key ``(-pref, length, neighbor)``.

    ``pref`` is fixed at insertion, which is sound because a link's
    relationship cannot change: a speaker reads the graph when it is
    built, which freezes the graph for good.  Topology events in this
    simulator go through the transport (session resets withdraw the
    affected routes).
    """

    __slots__ = ("path", "learned_from", "et", "lock", "pref", "base_key")

    def __init__(
        self,
        path: ASPath,
        learned_from: Optional[ASN],
        et: EventType = EventType.NO_LOSS,
        lock: bool = False,
        pref: Optional[int] = None,
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
        self.pref = pref
        self.base_key: Optional[Tuple[int, int, int]] = (
            (-pref, len(path), learned_from if learned_from is not None else -1)
            if pref is not None
            else None
        )

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

    @property
    def next_hop(self) -> Optional[ASN]:
        """Forwarding next hop (``None`` for the origin itself)."""
        return self.learned_from


class AdjRibIn:
    """Per-neighbor store of the most recent accepted announcement.

    The deterministic (neighbor-ASN-ordered) route list consumed by the
    decision process is cached and invalidated on mutation, so repeated
    decision runs between updates do not re-sort.
    """

    def __init__(self) -> None:
        self._routes: Dict[ASN, Route] = {}
        self._sorted: Optional[Tuple[Route, ...]] = None

    def update(self, neighbor: ASN, route: Route) -> None:
        """Replace the route learned from a neighbor."""
        self._routes[neighbor] = route
        self._sorted = None

    def withdraw(self, neighbor: ASN) -> bool:
        """Remove the neighbor's route; returns whether one existed."""
        if self._routes.pop(neighbor, None) is None:
            return False
        self._sorted = None
        return True

    def get(self, neighbor: ASN) -> Optional[Route]:
        """Route learned from a neighbor, if any."""
        return self._routes.get(neighbor)

    def clear(self) -> None:
        """Drop every stored route (speaker reboot) in place."""
        self._routes.clear()
        self._sorted = None

    def routes(self) -> Tuple[Route, ...]:
        """All stored routes, in deterministic (neighbor ASN) order.

        Returns an immutable cached tuple, so callers cannot corrupt
        the RIB's internal view between mutations.
        """
        if self._sorted is None:
            self._sorted = tuple(
                self._routes[nbr] for nbr in sorted(self._routes)
            )
        return self._sorted

    def neighbors(self) -> List[ASN]:
        """Neighbors we currently hold a route from, sorted."""
        return sorted(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[ASN]:
        return iter(sorted(self._routes))

    def __contains__(self, neighbor: ASN) -> bool:
        return neighbor in self._routes
