"""Annotated AS graph on an int-indexed CSR core.

Each AS is one node (the paper's model); each link carries one of the
two common business relationships: customer-provider (c2p) or peer-peer
(p2p).  The customer-provider hierarchy is required to be acyclic, which
is the assumption under which Gao-Rexford safety (and hence the paper's
analysis) holds.

Storage model (the "production scale" substrate — real AS graphs are
~80k nodes, far past where dict-of-dicts adjacency pays off):

* **CSR base** — an immutable compressed-sparse-row snapshot
  (:class:`_CSRBase`).  ASNs are interned to dense indices; neighbor
  rows live in contiguous offset/target arrays, every one a read-only
  :class:`memoryview` of int64 (``"q"``) or int8 (``"b"``) items — over
  an :mod:`array` when the snapshot is built here, over a shared-memory
  segment or a received ``bytes`` object when it is decoded — so the
  type itself enforces the snapshot's immutability and every element
  read is a plain ``int``.  One array family keeps rows in *link
  insertion order* (preserving the exact enumeration order the
  dict-of-dicts implementation exposed through :meth:`links` and
  :meth:`iter_c2p`); a second family keeps one sorted-ASN row per
  relationship class, which the cached adjacency views slice directly.
  The snapshot has exactly one byte encoding
  (:meth:`_CSRBase.to_bytes` / :meth:`_CSRBase.from_buffer`, layout
  below), carried three ways: in the shared-memory segment, over the
  worker pipe when no segment can be created, and as the snapshot's
  pickle state.
* **Build, then freeze** — a graph is in one of two whole-graph states.
  While it is *being built* the adjacency is a plain insertion-ordered
  dict-of-dicts: ``add_as`` / ``add_c2p`` / ``add_p2p`` write to it, and
  ``has_link``, ``in``, ``len``, iteration and ``repr`` read it.  The
  first call of any other reader *freezes* the graph: the rows are
  folded once into a CSR snapshot, the dict is dropped, and from then
  on every read is served by the snapshot and every ``add_*`` raises
  :class:`~repro.errors.TopologyError`, leaving the graph unchanged.
  A graph decoded from bytes (a shared-memory attach, a worker pipe, a
  pickle of a frozen graph) is frozen from the start.  The paper runs
  every failure on one fixed topology, and so does this repository:
  link and AS failures (and restores) are session events inside
  :mod:`repro.sim.transport`, never graph edits.

The query API is unchanged from the dict era: ``providers`` /
``customers`` / ``peers`` / ``neighbors`` return shared immutable
sorted tuples cached per AS, and ``is_tier1`` / ``is_multihomed`` /
``degree`` are O(1) after the first view build.  Because the first
read freezes a graph, those tuples — and everything downstream derives
from them (speaker tables, Φ caches, the content hash, the twin-start
key) — can be cached by graph identity alone.
The retained pre-CSR implementation
(:class:`repro.topology.reference.ReferenceASGraph`) is the executable
specification; ``tests/topology/test_csr_equivalence.py`` pins the two
identical under randomized build streams.

Byte layout of a snapshot (native byte order — a segment or pipe
payload never leaves the machine that wrote it)::

    magic   8 bytes   b"RPROCSR1"
    header  5 int64   n_as, n_nbr, n_prov, n_cust, n_peer
    int64   asns[n_as]                    dense index -> ASN
    int64   nbr_off[n_as+1]               insertion-order neighbor CSR
    int64   nbr_tgt[n_nbr]                  (targets are dense indices)
    int64   prov_off[n_as+1], prov_tgt[n_prov]   sorted-ASN rows per
    int64   cust_off[n_as+1], cust_tgt[n_cust]   relationship class
    int64   peer_off[n_as+1], peer_tgt[n_peer]
    int8    nbr_rel[n_nbr]                relationship codes (trailing
                                          so every int64 array stays
                                          8-byte aligned)
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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

#: Relationship codes used in the CSR ``rel`` arrays (stable: they are
#: part of the byte layout).
_REL_OF_CODE: Tuple[Relationship, ...] = (
    Relationship.PROVIDER,
    Relationship.CUSTOMER,
    Relationship.PEER,
)
_CODE_OF_REL: Dict[Relationship, int] = {
    rel: code for code, rel in enumerate(_REL_OF_CODE)
}


_MAGIC = b"RPROCSR1"
_HEADER_END = len(_MAGIC) + 5 * 8


def _frozen(typecode: str, values: Sequence[int]) -> memoryview:
    """A read-only int64 (``"q"``) / int8 (``"b"``) array of ``values``."""
    return memoryview(array(typecode, values)).toreadonly()


class _CSRBase:
    """Immutable CSR snapshot of the adjacency.

    ``asns`` maps dense index -> ASN in graph insertion order (the
    interning table); ``index`` is its inverse.  ``nbr_*`` keep each
    AS's neighbors in link insertion order (targets as dense indices,
    relationships as codes).  ``prov_*`` / ``cust_*`` / ``peer_*`` keep
    one sorted row of neighbor *ASNs* per relationship class — the
    arrays the adjacency views are sliced from without re-sorting.

    Instances are never mutated after construction: a frozen graph
    reads only its snapshot, and that immutability is what makes
    sharing one across processes via :mod:`repro.topology.shm` safe.
    """

    __slots__ = (
        "index", "asns",
        "nbr_off", "nbr_tgt",
        "prov_off", "prov_tgt",
        "cust_off", "cust_tgt",
        "peer_off", "peer_tgt",
        "nbr_rel",
    )

    def __init__(
        self, asns, nbr_off, nbr_tgt, prov_off, prov_tgt,
        cust_off, cust_tgt, peer_off, peer_tgt, nbr_rel,
    ) -> None:
        self.asns: List[ASN] = list(asns)
        self.index: Dict[ASN, int] = {
            asn: i for i, asn in enumerate(self.asns)
        }
        self.nbr_off = nbr_off
        self.nbr_tgt = nbr_tgt
        self.prov_off = prov_off
        self.prov_tgt = prov_tgt
        self.cust_off = cust_off
        self.cust_tgt = cust_tgt
        self.peer_off = peer_off
        self.peer_tgt = peer_tgt
        self.nbr_rel = nbr_rel

    def __reduce__(self):
        # A memoryview does not pickle, and the arrays may be views of a
        # shared-memory segment: the pickle carries the encoded bytes,
        # so a snapshot (e.g. a graph captured inside a ledgered result)
        # never depends on the segment being present at load time.
        return (_CSRBase.from_buffer, (self.to_bytes(),))

    @classmethod
    def from_rows(
        cls, rows: Dict[ASN, Dict[ASN, Relationship]]
    ) -> "_CSRBase":
        """Fold insertion-ordered adjacency rows into CSR arrays.

        ``rows[asn]`` maps each neighbor to what it is to ``asn``, in
        link insertion order; every neighbor must itself be a key.
        """
        asns = list(rows)
        index = {asn: i for i, asn in enumerate(asns)}
        nbr_off = [0]
        nbr_tgt: List[int] = []
        nbr_rel: List[int] = []
        prov_off = [0]
        prov_tgt: List[int] = []
        cust_off = [0]
        cust_tgt: List[int] = []
        peer_off = [0]
        peer_tgt: List[int] = []
        for asn in asns:
            prov: List[int] = []
            cust: List[int] = []
            peer: List[int] = []
            for nbr, rel in rows[asn].items():
                nbr_tgt.append(index[nbr])
                nbr_rel.append(_CODE_OF_REL[rel])
                if rel is Relationship.PROVIDER:
                    prov.append(nbr)
                elif rel is Relationship.CUSTOMER:
                    cust.append(nbr)
                else:
                    peer.append(nbr)
            nbr_off.append(len(nbr_tgt))
            prov.sort()
            cust.sort()
            peer.sort()
            prov_tgt.extend(prov)
            cust_tgt.extend(cust)
            peer_tgt.extend(peer)
            prov_off.append(len(prov_tgt))
            cust_off.append(len(cust_tgt))
            peer_off.append(len(peer_tgt))
        return cls(
            asns,
            _frozen("q", nbr_off), _frozen("q", nbr_tgt),
            _frozen("q", prov_off), _frozen("q", prov_tgt),
            _frozen("q", cust_off), _frozen("q", cust_tgt),
            _frozen("q", peer_off), _frozen("q", peer_tgt),
            _frozen("b", nbr_rel),
        )

    # -- the one byte encoding (layout: module docstring) --------------

    def to_bytes(self) -> bytes:
        """Encode the snapshot (deterministic for equal arrays)."""
        header = array(
            "q", [len(self.asns), len(self.nbr_tgt), len(self.prov_tgt),
                  len(self.cust_tgt), len(self.peer_tgt)],
        )
        return b"".join(
            (
                _MAGIC, header, array("q", self.asns),
                self.nbr_off, self.nbr_tgt,
                self.prov_off, self.prov_tgt,
                self.cust_off, self.cust_tgt,
                self.peer_off, self.peer_tgt,
                self.nbr_rel,
            )
        )

    @classmethod
    def from_buffer(cls, buf) -> "_CSRBase":
        """Decode :meth:`to_bytes` output without copying the arrays.

        ``buf`` is any bytes-like object — a shared-memory buffer, a
        ``bytes`` payload off a pipe or out of a pickle.  The snapshot's
        arrays are read-only views into it (they keep a ``bytes`` object
        alive; a segment must stay mapped while they are referenced).
        A buffer attached by name is input from outside the process, so
        the header is checked against ``len(buf)`` before any view is
        built: wrong magic, negative counts and a buffer shorter than
        its header promises all raise :class:`ValueError`.
        """
        with memoryview(buf) as view:
            if bytes(view[: len(_MAGIC)]) != _MAGIC:
                raise ValueError("CSR topology payload has wrong magic")
            if len(view) < _HEADER_END:
                raise ValueError("CSR topology payload is truncated")
            counts = view[len(_MAGIC):_HEADER_END].cast("q").tolist()
            n_as, n_nbr, n_prov, n_cust, n_peer = counts
            lengths = (
                n_as, n_as + 1, n_nbr, n_as + 1, n_prov,
                n_as + 1, n_cust, n_as + 1, n_peer,
            )
            end = _HEADER_END + 8 * sum(lengths) + n_nbr
            if min(counts) < 0 or end > len(view):
                raise ValueError(
                    f"CSR topology payload is truncated or corrupt: header "
                    f"counts {counts} need {end} bytes, buffer holds "
                    f"{len(view)}"
                )
            readonly = view.toreadonly()
            offset = _HEADER_END
            arrays = []
            for length in lengths:
                arrays.append(readonly[offset:offset + 8 * length].cast("q"))
                offset += 8 * length
            arrays.append(readonly[offset:offset + n_nbr].cast("b"))
        return cls(arrays[0].tolist(), *arrays[1:])

    # -- row decoding --------------------------------------------------

    def row_pairs(self, idx: int) -> List[Tuple[ASN, Relationship]]:
        """Insertion-ordered ``(neighbor ASN, relationship)`` pairs."""
        start = self.nbr_off[idx]
        end = self.nbr_off[idx + 1]
        asns = self.asns
        return [
            (asns[t], _REL_OF_CODE[r])
            for t, r in zip(
                self.nbr_tgt[start:end].tolist(),
                self.nbr_rel[start:end].tolist(),
            )
        ]

    def rel_of(self, idx: int, b: ASN) -> Optional[Relationship]:
        """Relationship of neighbor ``b`` in row ``idx`` (or None)."""
        for off, tgt, rel in (
            (self.prov_off, self.prov_tgt, Relationship.PROVIDER),
            (self.cust_off, self.cust_tgt, Relationship.CUSTOMER),
            (self.peer_off, self.peer_tgt, Relationship.PEER),
        ):
            start = off[idx]
            end = off[idx + 1]
            pos = bisect_left(tgt, b, start, end)
            if pos < end and tgt[pos] == b:
                return rel
        return None

    def degree_of(self, idx: int) -> int:
        return self.nbr_off[idx + 1] - self.nbr_off[idx]

    def view_of(self, idx: int) -> _AdjView:
        """Build one AS's cached adjacency view from the sorted rows."""
        prov = tuple(
            self.prov_tgt[self.prov_off[idx]:self.prov_off[idx + 1]].tolist()
        )
        cust = tuple(
            self.cust_tgt[self.cust_off[idx]:self.cust_off[idx + 1]].tolist()
        )
        peer = tuple(
            self.peer_tgt[self.peer_off[idx]:self.peer_off[idx + 1]].tolist()
        )
        return (prov, cust, peer, tuple(sorted(prov + cust + peer)))


class ASGraph:
    """AS-level topology with relationship-annotated links.

    Relationships are stored from each endpoint's viewpoint:
    ``graph.relationship(a, b)`` answers "what is *b* to *a*?".

    Built with ``add_*``, then frozen into an int-indexed CSR snapshot
    by the first read (see the module docstring); the public API —
    error types and the order of every enumeration — is identical to
    the retained dict-of-dicts reference implementation.
    """

    def __init__(self) -> None:
        #: The graph being built: insertion-ordered adjacency rows (the
        #: reference implementation's dict-of-dicts).  ``None`` once
        #: frozen.
        self._rows: Optional[Dict[ASN, Dict[ASN, Relationship]]] = {}
        #: The frozen snapshot; ``None`` while the graph is being built.
        self._base: Optional[_CSRBase] = None
        self._views: Dict[ASN, _AdjView] = {}
        self._ases: Optional[Tuple[ASN, ...]] = None
        self._tier1s: Optional[Tuple[ASN, ...]] = None

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------

    def _freeze(self) -> _CSRBase:
        """The CSR snapshot, folding the built rows into it first."""
        base = self._base
        if base is None:
            base = self._base = _CSRBase.from_rows(self._rows)
            self._rows = None
        return base

    def csr_base(self) -> _CSRBase:
        """The immutable CSR snapshot (freezes the graph).

        Its :meth:`~_CSRBase.to_bytes` is what a campaign ships to
        workers.
        """
        return self._freeze()

    @classmethod
    def _from_csr_base(cls, base: _CSRBase) -> "ASGraph":
        """Wrap an existing CSR snapshot (the decode path of a worker)."""
        graph = cls()
        graph._rows = None
        graph._base = base
        return graph

    def _index(self, asn: ASN) -> int:
        """The dense index of ``asn`` in the frozen snapshot."""
        idx = self._freeze().index.get(asn)
        if idx is None:
            raise UnknownASError(f"AS {asn} not in graph")
        return idx

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _building_rows(self) -> Dict[ASN, Dict[ASN, Relationship]]:
        rows = self._rows
        if rows is None:
            raise TopologyError(
                "graph is frozen: it has been read, so it can no longer "
                "be extended"
            )
        return rows

    def add_as(self, asn: ASN) -> None:
        """Add an AS with no links (idempotent while building)."""
        self._building_rows().setdefault(asn, {})

    def add_c2p(self, customer: ASN, provider: ASN) -> None:
        """Add a customer-provider link.

        Raises :class:`TopologyError` on self-links, if the link
        already exists with a different relationship, or once the graph
        is frozen.
        """
        self._add_link(customer, provider, Relationship.PROVIDER)

    def add_p2p(self, a: ASN, b: ASN) -> None:
        """Add a settlement-free peering link."""
        self._add_link(a, b, Relationship.PEER)

    def _add_link(self, a: ASN, b: ASN, rel_of_b: Relationship) -> None:
        rows = self._building_rows()
        if a == b:
            raise TopologyError(f"self-link at AS {a}")
        row_a = rows.setdefault(a, {})
        row_b = rows.setdefault(b, {})
        existing = row_a.get(b)
        if existing is not None:
            if existing is not rel_of_b:
                raise TopologyError(
                    f"link {a}-{b} already exists with relationship {existing.value}"
                )
            return
        row_a[b] = rel_of_b
        row_b[a] = rel_of_b.inverse

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _members(self) -> Dict[ASN, object]:
        """The ASes, keyed in insertion order, in either state (so
        ``in``, ``len`` and iteration never freeze)."""
        rows = self._rows
        return rows if rows is not None else self._base.index

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._members()

    def __len__(self) -> int:
        return len(self._members())

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._members())

    @property
    def ases(self) -> Tuple[ASN, ...]:
        """All AS numbers, sorted (stable iteration for seeded runs)."""
        if self._ases is None:
            self._ases = tuple(sorted(self._freeze().asns))
        return self._ases

    def has_link(self, a: ASN, b: ASN) -> bool:
        """Whether a direct link exists between two ASes (never freezes:
        builders ask it mid-build)."""
        rows = self._rows
        if rows is not None:
            return a in rows and b in rows[a]
        idx = self._base.index.get(a)
        return idx is not None and self._base.rel_of(idx, b) is not None

    def relationship(self, a: ASN, b: ASN) -> Relationship:
        """What *b* is to *a* (customer, peer, or provider)."""
        idx = self._index(a)
        rel = self._base.rel_of(idx, b)
        if rel is None:
            raise UnknownLinkError(f"no link {a}-{b}")
        return rel

    def neighbor_relationships(self, asn: ASN) -> Dict[ASN, Relationship]:
        """Fresh ``{neighbor: relationship}`` mapping of one AS.

        One pass over the AS's row — the cheap way for speakers to seed
        their per-neighbor tables eagerly instead of one
        :meth:`relationship` call per neighbor.
        """
        idx = self._index(asn)
        return dict(self._base.row_pairs(idx))

    def _view(self, asn: ASN) -> _AdjView:
        view = self._views.get(asn)
        if view is None:
            idx = self._index(asn)
            view = self._views[asn] = self._base.view_of(idx)
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
        idx = self._index(asn)
        return self._base.degree_of(idx)

    def is_multihomed(self, asn: ASN) -> bool:
        """Whether the AS has two or more providers."""
        return len(self._view(asn)[0]) >= 2

    def is_stub(self, asn: ASN) -> bool:
        """Whether the AS has no customers."""
        return not self._view(asn)[1]

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
        base = self._freeze()
        out: List[Tuple[ASN, ASN, Relationship]] = []
        seen: Set[Link] = set()
        for a in self.ases:
            for b, rel in base.row_pairs(base.index[a]):
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
        self.topological_order()

    def topological_order(self) -> List[ASN]:
        """ASes ordered so every customer precedes its providers.

        Raises :class:`CyclicHierarchyError` when the hierarchy is cyclic.
        """
        # indegree counts customers still unprocessed below each provider.
        indegree: Dict[ASN, int] = {asn: 0 for asn in self._freeze().asns}
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
        if len(order) != len(indegree):
            raise CyclicHierarchyError("customer-provider hierarchy contains a cycle")
        return order

    def iter_c2p(self) -> Iterator[Link]:
        """Iterate over every c2p link, customer first."""
        base = self._freeze()
        return (
            (a, b)
            for idx, a in enumerate(base.asns)
            for b, rel in base.row_pairs(idx)
            if rel is Relationship.PROVIDER
        )

    def uphill_reachable_tier1s(self, asn: ASN) -> Set[ASN]:
        """Tier-1 ASes reachable from ``asn`` by climbing provider links."""
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

    def __repr__(self) -> str:
        # Counted off whichever state the graph is in: a debugging aid
        # must not freeze a graph that is still being built.
        rows = self._rows
        if rows is not None:
            rels = [rel for row in rows.values() for rel in row.values()]
        else:
            rels = [_REL_OF_CODE[code] for code in self._base.nbr_rel]
        return (
            f"ASGraph(|V|={len(self)}, "
            f"c2p={rels.count(Relationship.PROVIDER)}, "
            f"p2p={rels.count(Relationship.PEER) // 2})"
        )
