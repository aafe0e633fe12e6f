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
* **Delta overlay** — mutations never touch the base arrays: the
  affected rows are materialized into small per-AS dicts and edited
  there.  The base is re-folded lazily, only when the overlay grows
  past ~1/8 of the rows (or on an explicit :meth:`compact`), and a base
  attached read-only from shared memory (:mod:`repro.topology.shm`) is
  never written by any worker.  The workload this serves is narrower
  than "failure experiments": none of them mutates a graph.  Link and
  AS failures (and restores) are session events inside
  :mod:`repro.sim.transport`; :meth:`ASGraph.remove_link`,
  :meth:`ASGraph.remove_as` and :meth:`ASGraph.copy` have no caller in
  ``src/``, ``examples/`` or ``bench/`` (one in
  ``benchmarks/bench_perf_micro.py``, plus the tests), so in practice
  the overlay absorbs the ``add_*`` calls of a graph that is still
  being built.  A build-then-freeze design would serve every current
  caller (ROADMAP item 3).

The query API is unchanged from the dict era: ``providers`` /
``customers`` / ``peers`` / ``neighbors`` return shared immutable
sorted tuples cached per AS, ``is_tier1`` / ``is_multihomed`` /
``degree`` are O(1) after the first view build, and every mutation
bumps :attr:`version` and invalidates the views, so speakers, Φ caches
and successor tables key off ``version`` exactly as before.  The
retained pre-CSR implementation
(:class:`repro.topology.reference.ReferenceASGraph`) is the executable
specification; ``tests/topology/test_csr_equivalence.py`` pins the two
identical under randomized mutation streams.

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

    Instances are never mutated after construction; the graph's delta
    overlay masks them row by row, and a rebuild produces a fresh
    snapshot.  That immutability is what makes sharing a base across
    :meth:`ASGraph.copy` clones — and across processes via
    :mod:`repro.topology.shm` — safe.
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
    def from_rows(cls, asns: Sequence[ASN], row_of) -> "_CSRBase":
        """Fold insertion-ordered adjacency rows into CSR arrays.

        ``row_of(asn)`` yields ``(neighbor, relationship)`` pairs in
        link insertion order; every neighbor must itself be in
        ``asns``.
        """
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
            for nbr, rel in row_of(asn):
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
    """Mutable AS-level topology with relationship-annotated links.

    Relationships are stored from each endpoint's viewpoint:
    ``graph.relationship(a, b)`` answers "what is *b* to *a*?".

    Internally the adjacency lives on an int-indexed CSR base plus a
    small mutation overlay (see the module docstring); the public API —
    including :attr:`version` semantics, error types, and the order of
    every enumeration — is identical to the retained dict-of-dicts
    reference implementation.
    """

    def __init__(self) -> None:
        #: Live AS registry in insertion order (the dict-of-dicts key
        #: order the reference implementation iterated in).
        self._live: Dict[ASN, None] = {}
        #: Per-AS replacement rows masking the base (delta overlay).
        self._overlay: Dict[ASN, Dict[ASN, Relationship]] = {}
        self._base: Optional[_CSRBase] = None
        self._version = 0
        self._views: Dict[ASN, _AdjView] = {}
        self._ases: Optional[Tuple[ASN, ...]] = None
        self._tier1s: Optional[Tuple[ASN, ...]] = None

    # ------------------------------------------------------------------
    # CSR lifecycle
    # ------------------------------------------------------------------

    def _overlay_heavy(self) -> bool:
        return self._base is None or (
            len(self._overlay) * 8 > len(self._live)
        )

    def _compact(self) -> None:
        self._base = _CSRBase.from_rows(list(self._live), self._row_items)
        self._overlay.clear()

    def compact(self) -> "ASGraph":
        """Fold pending overlay edits into a fresh CSR base (idempotent).

        Queries compact lazily on their own; calling this explicitly is
        only needed before exporting the CSR arrays (shared memory) or
        when benchmarking the fold itself.  Returns ``self``.
        """
        if self._overlay or self._base is None:
            self._compact()
        return self

    def csr_base(self) -> _CSRBase:
        """The compacted CSR snapshot (compacting first if needed).

        The returned object is immutable and remains valid — and
        correct for the topology at the moment of the call — no matter
        how the graph is mutated afterwards.  Its
        :meth:`~_CSRBase.to_bytes` is what a campaign ships to workers.
        """
        self.compact()
        assert self._base is not None
        return self._base

    @classmethod
    def _from_csr_base(cls, base: _CSRBase) -> "ASGraph":
        """Wrap an existing CSR snapshot (the decode path of a worker)."""
        graph = cls()
        graph._live = dict.fromkeys(base.asns)
        graph._base = base
        return graph

    # ------------------------------------------------------------------
    # Row access (insertion-ordered, overlay-masked)
    # ------------------------------------------------------------------

    def _row_items(self, asn: ASN) -> List[Tuple[ASN, Relationship]]:
        row = self._overlay.get(asn)
        if row is not None:
            return list(row.items())
        base = self._base
        if base is not None:
            idx = base.index.get(asn)
            if idx is not None:
                return base.row_pairs(idx)
        return []

    def _rel_lookup(self, a: ASN, b: ASN) -> Optional[Relationship]:
        row = self._overlay.get(a)
        if row is not None:
            return row.get(b)
        base = self._base
        if base is not None:
            idx = base.index.get(a)
            if idx is not None:
                return base.rel_of(idx, b)
        return None

    def _materialize(self, asn: ASN) -> Dict[ASN, Relationship]:
        """The AS's row as an editable overlay dict (copy-on-write)."""
        row = self._overlay.get(asn)
        if row is None:
            row = dict(self._row_items(asn))
            self._overlay[asn] = row
        return row

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _invalidate(self) -> None:
        self._version += 1
        if self._views:
            self._views.clear()
        self._ases = None
        self._tier1s = None

    def add_as(self, asn: ASN) -> None:
        """Add an AS with no links (idempotent)."""
        if asn not in self._live:
            self._live[asn] = None
            # A fresh (or re-added) AS always gets an overlay row: a
            # stale base row from before a removal must never show
            # through.
            self._overlay[asn] = {}
            self._invalidate()

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
        existing = self._rel_lookup(a, b)
        if existing is not None:
            if existing is not rel_of_b:
                raise TopologyError(
                    f"link {a}-{b} already exists with relationship {existing.value}"
                )
            return
        self._materialize(a)[b] = rel_of_b
        self._materialize(b)[a] = rel_of_b.inverse
        self._invalidate()

    def remove_link(self, a: ASN, b: ASN) -> None:
        """Remove the link between two ASes."""
        if not self.has_link(a, b):
            raise UnknownLinkError(f"no link {a}-{b}")
        del self._materialize(a)[b]
        del self._materialize(b)[a]
        self._invalidate()

    def remove_as(self, asn: ASN) -> None:
        """Remove an AS and all of its links."""
        self._require(asn)
        for nbr, _rel in self._row_items(asn):
            del self._materialize(nbr)[asn]
        self._overlay.pop(asn, None)
        del self._live[asn]
        self._invalidate()

    def copy(self) -> "ASGraph":
        """Deep copy of the graph (caches are rebuilt lazily).

        The immutable CSR base is shared with the clone; overlay rows
        are copied.  Mutations on either side only ever touch their own
        overlay, so the clone is fully independent.
        """
        clone = ASGraph()
        clone._live = dict.fromkeys(self._live)
        clone._base = self._base
        clone._overlay = {
            asn: dict(row) for asn, row in self._overlay.items()
        }
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever the topology changes."""
        return self._version

    def _require(self, asn: ASN) -> None:
        if asn not in self._live:
            raise UnknownASError(f"AS {asn} not in graph")

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._live

    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._live)

    @property
    def ases(self) -> Tuple[ASN, ...]:
        """All AS numbers, sorted (stable iteration for seeded runs)."""
        if self._ases is None:
            self._ases = tuple(sorted(self._live))
        return self._ases

    def has_link(self, a: ASN, b: ASN) -> bool:
        """Whether a direct link exists between two ASes."""
        return a in self._live and self._rel_lookup(a, b) is not None

    def relationship(self, a: ASN, b: ASN) -> Relationship:
        """What *b* is to *a* (customer, peer, or provider)."""
        self._require(a)
        rel = self._rel_lookup(a, b)
        if rel is None:
            raise UnknownLinkError(f"no link {a}-{b}")
        return rel

    def neighbor_relationships(self, asn: ASN) -> Dict[ASN, Relationship]:
        """Fresh ``{neighbor: relationship}`` mapping of one AS.

        One pass over the AS's row — the cheap way for speakers to seed
        their per-neighbor tables eagerly instead of one
        :meth:`relationship` call per neighbor.
        """
        self._require(asn)
        return dict(self._row_items(asn))

    def _view(self, asn: ASN) -> _AdjView:
        view = self._views.get(asn)
        if view is None:
            self._require(asn)
            if self._base is None or (
                asn in self._overlay and self._overlay_heavy()
            ):
                self._compact()
            row = self._overlay.get(asn)
            if row is None:
                assert self._base is not None
                view = self._base.view_of(self._base.index[asn])
            else:
                providers: List[ASN] = []
                customers: List[ASN] = []
                peers: List[ASN] = []
                for nbr, rel in row.items():
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
                    tuple(sorted(row)),
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
        row = self._overlay.get(asn)
        if row is not None:
            return len(row)
        base = self._base
        if base is not None:
            idx = base.index.get(asn)
            if idx is not None:
                return base.degree_of(idx)
        return 0

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
        out: List[Tuple[ASN, ASN, Relationship]] = []
        seen: Set[Link] = set()
        for a in self.ases:
            for b, rel in self._row_items(a):
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
        indegree: Dict[ASN, int] = {asn: 0 for asn in self._live}
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
        if len(order) != len(self._live):
            raise CyclicHierarchyError("customer-provider hierarchy contains a cycle")
        return order

    def iter_c2p(self) -> Iterator[Link]:
        """Iterate over every c2p link, customer first."""
        for a in self._live:
            for b, rel in self._row_items(a):
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
            f"ASGraph(|V|={len(self)}, c2p={len(self.c2p_links())}, "
            f"p2p={len(self.p2p_links())})"
        )
