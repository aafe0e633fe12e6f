"""Synthetic Internet-like AS topology generators.

The paper evaluates on an AS graph derived from RouteViews BGP tables.
RouteViews dumps are not available offline, so we substitute a seeded
generator that reproduces the structural properties the evaluation
depends on: a fully-peered tier-1 clique, multi-homed transit tiers, a
large stub fringe, intra-tier peering, and an acyclic c2p hierarchy
(docs/architecture.md, "Where this reproduction departs from the
paper", has the substitution argument).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.topology.graph import ASGraph
from repro.types import ASN

#: Provider-count weights (1, 2, 3, ... providers) for transit
#: (tier-2/3) ASes.  Transit networks were heavily multi-homed in
#: the 2008 graph; rich multihoming keeps the disjoint-path
#: probability Φ high and gives BGP's path exploration the stale
#: alternates that make its transient problems visible.
PROVIDER_COUNT_WEIGHTS: Tuple[float, ...] = (0.1, 0.4, 0.3, 0.2)
#: Provider-count weights for stub ASes (many single/dual-homed).
STUB_PROVIDER_COUNT_WEIGHTS: Tuple[float, ...] = (0.4, 0.4, 0.2)
#: Probability that a tier-3 AS homes one link directly to a tier-1.
TIER3_TIER1_UPLINK_PROB = 0.1
#: Probability of a peering link between any two tier-2 ASes.
TIER2_PEERING_PROB = 0.15
#: Probability of a peering link between any two tier-3 ASes.
TIER3_PEERING_PROB = 0.02


@dataclass(frozen=True)
class InternetTopologyConfig:
    """Parameters for :func:`generate_internet_topology`: a seed and
    the four tier sizes (the graph's shape is the module's constants).

    Defaults produce a ~600-AS graph with heavy multihoming, roughly a
    1:6:14:55 tier-1:tier-2:tier-3:stub split, suitable for the paper's
    experiments at laptop scale.
    """

    seed: int = 0
    n_tier1: int = 8
    n_tier2: int = 48
    n_tier3: int = 120
    n_stub: int = 440

    def __post_init__(self) -> None:
        if self.n_tier1 < 2:
            raise ConfigurationError("need at least two tier-1 ASes")
        if min(self.n_tier2, self.n_tier3, self.n_stub) < 0:
            raise ConfigurationError("tier sizes must be non-negative")

    @property
    def total_ases(self) -> int:
        """Total number of ASes the generated graph will contain."""
        return self.n_tier1 + self.n_tier2 + self.n_tier3 + self.n_stub


@dataclass
class TopologyTiers:
    """Which tier each generated AS belongs to (diagnostics and tests)."""

    tier1: List[ASN] = field(default_factory=list)
    tier2: List[ASN] = field(default_factory=list)
    tier3: List[ASN] = field(default_factory=list)
    stub: List[ASN] = field(default_factory=list)


def _pick_provider_count(rng: random.Random, weights: Sequence[float]) -> int:
    return rng.choices(range(1, len(weights) + 1), weights=weights, k=1)[0]


def generate_internet_topology(
    config: InternetTopologyConfig | None = None,
) -> Tuple[ASGraph, TopologyTiers]:
    """Generate a seeded Internet-like topology.

    Returns the graph together with the tier assignment used to build
    it.  The same config always yields the same graph.
    """
    config = config or InternetTopologyConfig()
    rng = random.Random(config.seed)
    graph = ASGraph()
    tiers = TopologyTiers()

    next_asn = 1
    for count, bucket in (
        (config.n_tier1, tiers.tier1),
        (config.n_tier2, tiers.tier2),
        (config.n_tier3, tiers.tier3),
        (config.n_stub, tiers.stub),
    ):
        for _ in range(count):
            graph.add_as(next_asn)
            bucket.append(next_asn)
            next_asn += 1

    # Tier-1 core: full peering clique (provider-free by construction).
    for i, a in enumerate(tiers.tier1):
        for b in tiers.tier1[i + 1 :]:
            graph.add_p2p(a, b)

    # Tier-2: multi-home into the tier-1 clique.
    for asn in tiers.tier2:
        k = min(_pick_provider_count(rng, PROVIDER_COUNT_WEIGHTS),
                len(tiers.tier1))
        for provider in rng.sample(tiers.tier1, k):
            graph.add_c2p(asn, provider)

    # Tier-3: multi-home into tier-2, with an occasional direct tier-1 link.
    for asn in tiers.tier3:
        pool = tiers.tier2 or tiers.tier1
        k = min(_pick_provider_count(rng, PROVIDER_COUNT_WEIGHTS), len(pool))
        providers = rng.sample(pool, k)
        if (
            tiers.tier2
            and rng.random() < TIER3_TIER1_UPLINK_PROB
        ):
            extra = rng.choice(tiers.tier1)
            if extra not in providers:
                providers.append(extra)
        for provider in providers:
            graph.add_c2p(asn, provider)

    # Stubs: multi-home into the transit tiers (tier-2 + tier-3).
    transit_pool = tiers.tier2 + tiers.tier3
    for asn in tiers.stub:
        pool = transit_pool or tiers.tier1
        k = min(
            _pick_provider_count(rng, STUB_PROVIDER_COUNT_WEIGHTS),
            len(pool),
        )
        for provider in rng.sample(pool, k):
            graph.add_c2p(asn, provider)

    # Intra-tier peering below the core.
    _add_peering(graph, rng, tiers.tier2, TIER2_PEERING_PROB)
    _add_peering(graph, rng, tiers.tier3, TIER3_PEERING_PROB)

    graph.check_acyclic_hierarchy()
    return graph, tiers


def _add_peering(
    graph: ASGraph, rng: random.Random, members: Sequence[ASN], prob: float
) -> None:
    if prob <= 0:
        return
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if graph.has_link(a, b):
                continue
            if rng.random() < prob:
                graph.add_p2p(a, b)


def example_paper_topology() -> ASGraph:
    """Small hand-built topology used throughout docs, examples and tests.

    Structure (c2p arrows point customer -> provider)::

            10 ==== 20          tier-1 peering clique (10, 20)
           /  \\    /  \\
          30   40-50   60       tier-2 transit (40-50 are peers)
           \\  /    \\  /
            70       80         multi-homed edge ASes
              \\     /
                90              dual-homed origin stub

    AS 90 is multi-homed to 70 and 80, whose uphill trees reach tier-1s
    10 and 20 over node-disjoint downhill segments, so STAMP can always
    construct complementary red and blue paths toward 90.
    """
    graph = ASGraph()
    graph.add_p2p(10, 20)
    graph.add_c2p(30, 10)
    graph.add_c2p(40, 10)
    graph.add_c2p(50, 20)
    graph.add_c2p(60, 20)
    graph.add_p2p(40, 50)
    graph.add_c2p(70, 30)
    graph.add_c2p(70, 40)
    graph.add_c2p(80, 50)
    graph.add_c2p(80, 60)
    graph.add_c2p(90, 70)
    graph.add_c2p(90, 80)
    graph.check_acyclic_hierarchy()
    return graph
