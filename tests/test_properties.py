"""Property-based tests (hypothesis) for core invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf
from repro.analysis.phi import phi_for_destination
from repro.bgp.network import BGPNetwork, NetworkConfig
from repro.forwarding.walk import classify_functional_graph
from repro.routing.static import compute_stable_routes
from repro.sim.delays import FixedDelay
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.topology.graph import ASGraph
from repro.topology.paths import downhill_nodes, is_valley_free, split_uphill_downhill
from repro.topology.caida import load_caida
from repro.topology.serialization import graph_to_lines
from repro.types import Outcome, normalize_link

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

small_topology_configs = st.builds(
    InternetTopologyConfig,
    seed=st.integers(0, 10_000),
    n_tier1=st.integers(2, 4),
    n_tier2=st.integers(2, 8),
    n_tier3=st.integers(0, 10),
    n_stub=st.integers(0, 20),
)


@st.composite
def random_graphs(draw):
    """Random acyclic AS graphs built bottom-up."""
    n = draw(st.integers(2, 14))
    rng = random.Random(draw(st.integers(0, 10_000)))
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(asn)
    # c2p edges always point low -> high ASN: guaranteed acyclic.
    for asn in range(1, n):
        k = rng.randint(1, min(2, n - asn))
        for provider in rng.sample(range(asn + 1, n + 1), k):
            graph.add_c2p(asn, provider)
    # Sprinkle a few peer links between unrelated ASes.
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        if not graph.has_link(a, b):
            graph.add_p2p(a, b)
    return graph


# ----------------------------------------------------------------------
# Topology invariants
# ----------------------------------------------------------------------


@given(small_topology_configs)
@settings(max_examples=20, deadline=None)
def test_generated_topologies_are_sound(config):
    graph, tiers = generate_internet_topology(config)
    graph.check_acyclic_hierarchy()
    assert len(graph) == config.total_ases
    for asn in graph.ases:
        assert graph.uphill_reachable_tier1s(asn)


@given(random_graphs())
@settings(max_examples=30, deadline=None)
def test_serialization_round_trips(graph):
    reloaded = load_caida(graph_to_lines(graph)).graph
    assert set(reloaded.links()) == set(graph.links())


@given(random_graphs(), st.integers(1, 14))
@settings(max_examples=30, deadline=None)
def test_stable_routes_are_valley_free_and_consistent(graph, dest_seed):
    destination = graph.ases[dest_seed % len(graph)]
    state = compute_stable_routes(graph, destination)
    for asn, route in state.routes.items():
        assert route.path[0] == asn
        assert route.path[-1] == destination
        assert is_valley_free(graph, route.path), route.path
        # Route consistency: next hop's route is our path minus one hop.
        if route.next_hop is not None:
            assert state.routes[route.next_hop].path == route.path[1:]


@given(random_graphs(), st.integers(1, 14))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dynamic_bgp_matches_static_oracle(graph, dest_seed):
    destination = graph.ases[dest_seed % len(graph)]
    oracle = compute_stable_routes(graph, destination)
    network = BGPNetwork(
        graph,
        destination,
        NetworkConfig(seed=1, delay=FixedDelay(0.01), mrai=MRAIConfig(base=2.0)),
    )
    network.start()
    for asn in graph.ases:
        expected = oracle.route(asn).path if oracle.route(asn) else None
        assert network.best_path(asn) == expected


@given(random_graphs(), st.integers(1, 14))
@settings(max_examples=20, deadline=None)
def test_split_reassembles_the_path(graph, dest_seed):
    destination = graph.ases[dest_seed % len(graph)]
    state = compute_stable_routes(graph, destination)
    for route in state.routes.values():
        uphill, peer, downhill = split_uphill_downhill(graph, route.path)
        rebuilt = list(uphill)
        if peer is not None:
            if not rebuilt:
                rebuilt.append(peer[0])
            rebuilt.append(peer[1])
        if downhill:
            if rebuilt and rebuilt[-1] == downhill[0]:
                rebuilt.extend(downhill[1:])
            else:
                rebuilt.extend(downhill)
        if len(route.path) > 1:
            assert tuple(rebuilt) == route.path, (route.path, uphill, peer, downhill)
        assert downhill_nodes(graph, route.path) <= set(route.path)


@given(random_graphs(), st.integers(1, 14))
@settings(max_examples=20, deadline=None)
def test_phi_bounds_and_determinism(graph, dest_seed):
    destination = graph.ases[dest_seed % len(graph)]
    a = phi_for_destination(graph, destination)
    b = phi_for_destination(graph, destination)
    assert 0.0 <= a.phi <= 1.0
    assert a == b
    assert a.n_good <= a.n_paths


# ----------------------------------------------------------------------
# Walk and engine invariants
# ----------------------------------------------------------------------


@given(
    st.dictionaries(
        st.integers(0, 30), st.one_of(st.none(), st.integers(0, 30)), max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_walk_outcomes_partition(successors):
    outcomes = classify_functional_graph(
        list(successors),
        successor=lambda s: successors.get(s),
        delivered=lambda s: s == 0,
    )
    for node in successors:
        assert outcomes[node] in (
            Outcome.DELIVERED,
            Outcome.LOOP,
            Outcome.BLACKHOLE,
        )
        nxt = successors.get(node)
        if nxt is not None and node != 0 and nxt in outcomes:
            # Outcome propagates along edges (except at the terminal).
            if outcomes[node] is not Outcome.LOOP:
                assert outcomes[node] == outcomes[nxt] or nxt == 0


@given(st.lists(st.tuples(st.floats(0, 100), st.integers(0, 5)), max_size=40))
@settings(max_examples=50)
def test_engine_executes_in_time_order(items):
    engine = Engine()
    fired = []
    for delay, payload in items:
        engine.schedule(delay, lambda p=payload, d=delay: fired.append(d))
    engine.run()
    assert fired == sorted(fired)


@given(st.lists(st.floats(0, 1), max_size=60))
@settings(max_examples=50)
def test_cdf_monotone_and_bounded(values):
    cdf = empirical_cdf(values)
    fractions = [f for _, f in cdf]
    assert fractions == sorted(fractions)
    assert all(0 < f <= 1 for f in fractions)
    if cdf:
        assert fractions[-1] == 1.0


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_normalize_link_symmetric(a, b):
    assert normalize_link(a, b) == normalize_link(b, a)
    assert normalize_link(a, b)[0] <= normalize_link(a, b)[1]
