"""Retained dict-of-dicts AS graph: the differential-test twin.

This is the pre-CSR implementation of :class:`repro.topology.graph
.ASGraph`, kept (renamed, with the same build-only API) as the
executable specification the CSR core is pinned against.
``tests/topology/test_csr_equivalence.py`` drives randomized build
streams through both classes and asserts every observable — adjacency
views, ``relationship``, error types and messages, link enumeration
order — is identical.  Like a frozen ``ASGraph``, it must not be
extended once read: its cached views are never invalidated.  Do not
"improve" this class: its value is that it does not change.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    CyclicHierarchyError,
    TopologyError,
    UnknownASError,
    UnknownLinkError,
)
from repro.types import ASN, Link, Relationship, normalize_link

#: Cached per-AS adjacency: (providers, customers, peers, neighbors).
_AdjView = Tuple[
    Tuple[ASN, ...], Tuple[ASN, ...], Tuple[ASN, ...], Tuple[ASN, ...]
]


class ReferenceASGraph:
    """Mutable AS-level topology with relationship-annotated links.

    Relationships are stored from each endpoint's viewpoint:
    ``graph.relationship(a, b)`` answers "what is *b* to *a*?".
    """

    def __init__(self) -> None:
        self._nbr: Dict[ASN, Dict[ASN, Relationship]] = {}
        self._views: Dict[ASN, _AdjView] = {}
        self._ases: Optional[Tuple[ASN, ...]] = None
        self._tier1s: Optional[Tuple[ASN, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_as(self, asn: ASN) -> None:
        """Add an AS with no links (idempotent)."""
        if asn not in self._nbr:
            self._nbr[asn] = {}

    def add_c2p(self, customer: ASN, provider: ASN) -> None:
        """Add a customer-provider link.

        Raises :class:`TopologyError` on self-links or if the link
        already exists with a different relationship.
        """
        self._add_link(customer, provider, Relationship.PROVIDER)

    def add_p2p(self, a: ASN, b: ASN) -> None:
        """Add a settlement-free peering link."""
        self._add_link(a, b, Relationship.PEER)

    def _add_link(self, a: ASN, b: ASN, rel_of_b: Relationship) -> None:
        if a == b:
            raise TopologyError(f"self-link at AS {a}")
        self.add_as(a)
        self.add_as(b)
        existing = self._nbr[a].get(b)
        if existing is not None:
            if existing is not rel_of_b:
                raise TopologyError(
                    f"link {a}-{b} already exists with relationship {existing.value}"
                )
            return
        self._nbr[a][b] = rel_of_b
        self._nbr[b][a] = rel_of_b.inverse

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _require(self, asn: ASN) -> None:
        if asn not in self._nbr:
            raise UnknownASError(f"AS {asn} not in graph")

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._nbr

    def __len__(self) -> int:
        return len(self._nbr)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._nbr)

    @property
    def ases(self) -> Tuple[ASN, ...]:
        """All AS numbers, sorted (stable iteration for seeded runs)."""
        if self._ases is None:
            self._ases = tuple(sorted(self._nbr))
        return self._ases

    def has_link(self, a: ASN, b: ASN) -> bool:
        """Whether a direct link exists between two ASes."""
        return a in self._nbr and b in self._nbr[a]

    def relationship(self, a: ASN, b: ASN) -> Relationship:
        """What *b* is to *a* (customer, peer, or provider)."""
        self._require(a)
        try:
            return self._nbr[a][b]
        except KeyError:
            raise UnknownLinkError(f"no link {a}-{b}") from None

    def neighbor_relationships(self, asn: ASN) -> Dict[ASN, Relationship]:
        """Fresh ``{neighbor: relationship}`` mapping of one AS.

        One C-level dict copy of the adjacency row — the cheap way for
        speakers to seed their per-neighbor tables eagerly instead of
        one :meth:`relationship` call per neighbor.
        """
        self._require(asn)
        return dict(self._nbr[asn])

    def _view(self, asn: ASN) -> _AdjView:
        view = self._views.get(asn)
        if view is None:
            self._require(asn)
            providers: List[ASN] = []
            customers: List[ASN] = []
            peers: List[ASN] = []
            for nbr, rel in self._nbr[asn].items():
                if rel is Relationship.PROVIDER:
                    providers.append(nbr)
                elif rel is Relationship.CUSTOMER:
                    customers.append(nbr)
                else:
                    peers.append(nbr)
            providers.sort()
            customers.sort()
            peers.sort()
            view = (
                tuple(providers),
                tuple(customers),
                tuple(peers),
                tuple(sorted(self._nbr[asn])),
            )
            self._views[asn] = view
        return view

    def neighbors(self, asn: ASN) -> Tuple[ASN, ...]:
        """All neighbors of an AS, sorted (cached tuple)."""
        return self._view(asn)[3]

    def providers(self, asn: ASN) -> Tuple[ASN, ...]:
        """Providers of an AS, sorted (cached tuple)."""
        return self._view(asn)[0]

    def customers(self, asn: ASN) -> Tuple[ASN, ...]:
        """Customers of an AS, sorted (cached tuple)."""
        return self._view(asn)[1]

    def peers(self, asn: ASN) -> Tuple[ASN, ...]:
        """Peers of an AS, sorted (cached tuple)."""
        return self._view(asn)[2]

    def degree(self, asn: ASN) -> int:
        """Number of neighbors."""
        self._require(asn)
        return len(self._nbr[asn])

    def is_multihomed(self, asn: ASN) -> bool:
        """Whether the AS has two or more providers."""
        return len(self._view(asn)[0]) >= 2

    def is_tier1(self, asn: ASN) -> bool:
        """Whether the AS has no providers (top of the hierarchy)."""
        return not self._view(asn)[0]

    def tier1s(self) -> Tuple[ASN, ...]:
        """All provider-free ASes, sorted (cached tuple)."""
        if self._tier1s is None:
            self._tier1s = tuple(
                asn for asn in self.ases if not self._view(asn)[0]
            )
        return self._tier1s

    def links(self) -> List[Tuple[ASN, ASN, Relationship]]:
        """Every undirected link once, as ``(a, b, what-b-is-to-a)``.

        c2p links are reported customer-first, p2p links low-ASN-first.
        """
        out: List[Tuple[ASN, ASN, Relationship]] = []
        seen: Set[Link] = set()
        for a in self.ases:
            for b, rel in self._nbr[a].items():
                key = normalize_link(a, b)
                if key in seen:
                    continue
                seen.add(key)
                if rel is Relationship.PROVIDER:
                    out.append((a, b, Relationship.PROVIDER))
                elif rel is Relationship.CUSTOMER:
                    out.append((b, a, Relationship.PROVIDER))
                else:
                    out.append((key[0], key[1], Relationship.PEER))
        return out

    def c2p_links(self) -> List[Link]:
        """Every customer-provider link, customer first."""
        return [(a, b) for a, b, rel in self.links() if rel is Relationship.PROVIDER]

    def p2p_links(self) -> List[Link]:
        """Every peering link, low ASN first."""
        return [(a, b) for a, b, rel in self.links() if rel is Relationship.PEER]

    # ------------------------------------------------------------------
    # Hierarchy analysis
    # ------------------------------------------------------------------

    def check_acyclic_hierarchy(self) -> None:
        """Raise :class:`CyclicHierarchyError` if c2p edges form a cycle.

        The paper assumes customer-provider relationships are acyclic
        (no AS is an indirect provider of its own provider).
        """
        try:
            self.topological_order()
        except CyclicHierarchyError:
            raise

    def topological_order(self) -> List[ASN]:
        """ASes ordered so every customer precedes its providers.

        Raises :class:`CyclicHierarchyError` when the hierarchy is cyclic.
        """
        # indegree counts customers still unprocessed below each provider.
        indegree: Dict[ASN, int] = {asn: 0 for asn in self._nbr}
        for _, provider in self.iter_c2p():
            indegree[provider] += 1
        ready = sorted(asn for asn, deg in indegree.items() if deg == 0)
        order: List[ASN] = []
        queue = list(ready)
        while queue:
            asn = queue.pop()
            order.append(asn)
            for provider in self.providers(asn):
                indegree[provider] -= 1
                if indegree[provider] == 0:
                    queue.append(provider)
        if len(order) != len(self._nbr):
            raise CyclicHierarchyError("customer-provider hierarchy contains a cycle")
        return order

    def iter_c2p(self) -> Iterator[Link]:
        """Iterate over every c2p link, customer first."""
        for a in self._nbr:
            for b, rel in self._nbr[a].items():
                if rel is Relationship.PROVIDER:
                    yield (a, b)

    def uphill_reachable_tier1s(self, asn: ASN) -> Set[ASN]:
        """Tier-1 ASes reachable from ``asn`` by climbing provider links."""
        self._require(asn)
        seen: Set[ASN] = set()
        stack = [asn]
        found: Set[ASN] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            providers = self._view(node)[0]
            if not providers:
                found.add(node)
            stack.extend(providers)
        return found

    def first_multihomed_ancestor(self, asn: ASN) -> ASN | None:
        """First multi-homed AS on a single-homed AS's provider chain.

        Used by the paper to transfer the disjointness probability of a
        single-homed AS to its first multi-homed (direct or indirect)
        provider (footnote 4).  Returns ``asn`` itself when it is already
        multi-homed, and ``None`` if the chain ends at a tier-1 without
        ever meeting a multi-homed AS.
        """
        self._require(asn)
        current = asn
        visited: Set[ASN] = set()
        while True:
            providers = self._view(current)[0]
            if len(providers) >= 2:
                return current
            if not providers:
                return None
            if current in visited:  # defensive; acyclic graphs never hit this
                return None
            visited.add(current)
            current = providers[0]

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReferenceASGraph(|V|={len(self)}, c2p={len(self.c2p_links())}, "
            f"p2p={len(self.p2p_links())})"
        )
