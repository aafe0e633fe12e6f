"""Gao's AS relationship inference algorithm.

The paper derives its AS topology from RouteViews BGP tables and infers
customer-provider / peer-peer relationships "using Gao's algorithm"
[Gao 2001, IEEE/ACM ToN].  We implement the published algorithm, with
its peering phases, so the full paper pipeline (tables -> annotated
graph -> experiments) can be reproduced end to end on synthetic tables:

1. **Transit counting** — in each AS path, the highest-degree AS is
   taken as the top provider; every AS left of it is inferred to use
   its right neighbor as transit (uphill), every AS right of it
   provides transit to its right neighbor (downhill).
2. **Relationship assignment** — an edge where only one side ever
   transits for the other is customer-provider; edges with (more than
   ``SIBLING_THRESHOLD``) transit observations in both directions are
   siblings, which we conservatively fold into peering.
3. **Ruling out peering** — only a path's top edges can be peering;
   when neither is a sibling, the one toward the lower-degree neighbor
   cannot be either.
4. **Peering identification** — every edge not ruled out whose
   endpoint degrees are within ``PEERING_DEGREE_RATIO`` is labeled
   peer-peer, over its phase-2 label.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.topology.graph import ASGraph
from repro.types import ASN, Link, Relationship, normalize_link

#: More transit observations than this in both directions make a link
#: a sibling.
SIBLING_THRESHOLD = 1
#: Gao's R: a peering link joins ASes whose degrees differ by at most
#: this factor.
PEERING_DEGREE_RATIO = 60.0


@dataclass
class InferenceResult:
    """Outcome of relationship inference over a set of AS paths."""

    #: Inferred annotated graph (only links seen in at least one path).
    graph: ASGraph
    #: Links inferred as peer-peer (normalized pairs).
    peer_links: Set[Link] = field(default_factory=set)
    #: Links inferred as customer-provider, customer first.
    c2p_links: Set[Link] = field(default_factory=set)
    #: Links with transit observations both ways (possible siblings).
    sibling_links: Set[Link] = field(default_factory=set)

    def accuracy_against(self, truth: ASGraph) -> Dict[str, float]:
        """Fraction of inferred links whose label matches ground truth.

        Returns per-class accuracy plus overall, considering only links
        present in both graphs.
        """
        total = correct = 0
        per_class: Dict[str, List[int]] = {"c2p": [0, 0], "p2p": [0, 0]}
        for customer, provider in self.c2p_links:
            if not truth.has_link(customer, provider):
                continue
            total += 1
            per_class["c2p"][1] += 1
            if truth.relationship(customer, provider) is Relationship.PROVIDER:
                correct += 1
                per_class["c2p"][0] += 1
        for a, b in self.peer_links:
            if not truth.has_link(a, b):
                continue
            total += 1
            per_class["p2p"][1] += 1
            if truth.relationship(a, b) is Relationship.PEER:
                correct += 1
                per_class["p2p"][0] += 1
        out = {
            "overall": correct / total if total else 0.0,
        }
        for name, (hits, seen) in per_class.items():
            out[name] = hits / seen if seen else 0.0
        return out


def infer_relationships(
    paths: Iterable[Sequence[ASN]],
) -> InferenceResult:
    """Infer AS relationships from observed AS paths (Gao's algorithm).

    ``paths`` are forwarding-order AS paths (vantage point first, origin
    last), e.g. the AS_PATH column of RouteViews table dumps.
    """
    path_list: List[Tuple[ASN, ...]] = [tuple(p) for p in paths if len(p) >= 2]

    # Degrees as seen in the paths themselves (the measured graph).
    neighbor_sets: Dict[ASN, Set[ASN]] = defaultdict(set)
    for path in path_list:
        for u, v in zip(path, path[1:]):
            if u == v:
                continue
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
    degree = {asn: len(nbrs) for asn, nbrs in neighbor_sets.items()}

    # Phase 1: transit counting.  transit[(u, v)] counts observations
    # of "v provides transit for u", i.e. v looks like u's provider.
    transit: Counter = Counter()
    for path in path_list:
        top = max(range(len(path)), key=lambda i: (degree[path[i]], -i))
        for i in range(top):
            transit[(path[i], path[i + 1])] += 1
        for i in range(top, len(path) - 1):
            transit[(path[i + 1], path[i])] += 1

    # Phase 2: relationship assignment.
    links: Set[Link] = set()
    for path in path_list:
        for u, v in zip(path, path[1:]):
            if u != v:
                links.add(normalize_link(u, v))

    c2p: Set[Link] = set()
    siblings: Set[Link] = set()
    for a, b in sorted(links):
        ab = transit[(a, b)]  # b transits for a  => b provider of a
        ba = transit[(b, a)]
        if ab > SIBLING_THRESHOLD and ba > SIBLING_THRESHOLD:
            siblings.add((a, b))
        elif ab > 0 and ba > 0:
            # Conflicting but weak evidence: trust the heavier side.
            if ab >= ba:
                c2p.add((a, b))
            else:
                c2p.add((b, a))
        elif ab > 0:
            c2p.add((a, b))
        elif ba > 0:
            c2p.add((b, a))

    # Phase 3: the edges that cannot be peering.  Only an edge at a
    # path's top can be; of the two top edges, the one toward the
    # lower-degree neighbor cannot either, unless one is a sibling.
    not_peering: Set[Link] = set()
    for path in path_list:
        top = max(range(len(path)), key=lambda i: (degree[path[i]], -i))
        for index, (u, v) in enumerate(zip(path, path[1:])):
            if index not in (top - 1, top):
                not_peering.add(normalize_link(u, v))
        if 0 < top < len(path) - 1:
            left = normalize_link(path[top - 1], path[top])
            right = normalize_link(path[top], path[top + 1])
            if left not in siblings and right not in siblings:
                if degree[path[top - 1]] > degree[path[top + 1]]:
                    not_peering.add(right)
                else:
                    not_peering.add(left)

    # Phase 4: a top edge left, between ASes of comparable degree, is a
    # peering link.
    peers: Set[Link] = set()
    for a, b in links - not_peering - siblings:
        deg_a, deg_b = degree[a], degree[b]
        if max(deg_a, deg_b) / min(deg_a, deg_b) <= PEERING_DEGREE_RATIO:
            peers.add((a, b))

    # Assemble the inferred graph; peer labels win over c2p.
    graph = ASGraph()
    final_c2p: Set[Link] = set()
    for customer, provider in sorted(c2p):
        link = normalize_link(customer, provider)
        if link in peers or link in siblings:
            continue
        graph.add_c2p(customer, provider)
        final_c2p.add((customer, provider))
    for a, b in sorted(peers | siblings):
        if not graph.has_link(a, b):
            graph.add_p2p(a, b)
    # Any link never classified (no transit evidence, not a candidate
    # peer) defaults to peering — no evidence of hierarchy.
    for a, b in sorted(links):
        if not graph.has_link(a, b):
            graph.add_p2p(a, b)
            peers.add((a, b))

    return InferenceResult(
        graph=graph,
        peer_links=peers,
        c2p_links=final_c2p,
        sibling_links=siblings,
    )
