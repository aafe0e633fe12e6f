"""Shared primitive types used across the reproduction.

The paper models the Internet at the AS level: each AS is a single node,
links between ASes carry a business relationship (customer-provider or
peer-peer), and routing operates on one destination prefix at a time.
This module defines the small vocabulary of enums and aliases every
other package builds on.
"""

from __future__ import annotations

import enum
from typing import Tuple

#: Autonomous system number.  Plain ints keep the simulator fast.
ASN = int

#: An AS-level path, origin last (``path[0]`` is the AS announcing to us,
#: ``path[-1]`` is the origin of the prefix).  Matches AS_PATH reading
#: order in BGP updates.
ASPath = Tuple[ASN, ...]

#: A directed or undirected AS adjacency, stored as an (a, b) pair.
Link = Tuple[ASN, ASN]


class Relationship(enum.Enum):
    """Business relationship of a neighbor, from the local AS viewpoint.

    ``CUSTOMER`` means the neighbor is *our customer* (we are its
    provider); ``PROVIDER`` means the neighbor is *our provider*;
    ``PEER`` is a settlement-free peer.
    """

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"

    @property
    def inverse(self) -> "Relationship":
        """Relationship as seen from the other end of the link."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


#: Preference order used by the Gao-Rexford "prefer customer" policy.
#: Higher is better.
RELATIONSHIP_PREFERENCE = {
    Relationship.CUSTOMER: 2,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 0,
}


class Color(enum.Enum):
    """Identity of one of STAMP's two parallel routing processes."""

    RED = "red"
    BLUE = "blue"

    @property
    def other(self) -> "Color":
        """The complementary process color."""
        return Color.BLUE if self is Color.RED else Color.RED


class EventType(enum.IntEnum):
    """STAMP's 1-bit ET path attribute (paper section 5.2).

    ``LOSS`` (0) marks updates ultimately caused by losing a route; any
    other update carries ``NO_LOSS`` (1).
    """

    LOSS = 0
    NO_LOSS = 1


class Outcome(enum.Enum):
    """Result of walking the data plane from an AS toward a destination."""

    DELIVERED = "delivered"
    LOOP = "loop"
    BLACKHOLE = "blackhole"


# Enum.__hash__ is a Python-level call (hash of the member name) and
# Color/Outcome sit inside dict keys and sets on the data-plane
# walk hot path; members are singletons, so the C-level identity hash
# is equivalent (equality is already identity) and much faster.
Color.__hash__ = object.__hash__  # type: ignore[method-assign]
Outcome.__hash__ = object.__hash__  # type: ignore[method-assign]


def normalize_link(a: ASN, b: ASN) -> Link:
    """Canonical undirected representation of the link between two ASes."""
    return (a, b) if a <= b else (b, a)
