"""Equivalence of the successor-table engine with the scalar walks.

Every plane compiles its snapshot onto one
:class:`repro.forwarding.walk.SuccessorTable`; the scalar closures
behind :meth:`WalkClassifier.classify` are the reference.  These tests
pin the table to them at three levels, on all four planes: raw
classification of fuzzed snapshots under fuzzed failure sets,
incremental propagation against full re-classification under random
update streams (including next hops that leave the snapshot's AS
universe and are interned on demand), and whole-analyzer equivalence
with the brute-force reference twins — including episode phase
boundaries and restore-induced outcome flips.
"""

import random

import pytest

import repro.forwarding.stamp_plane as stamp_plane
from live_collector import run_live
from repro.analysis.transient import (
    _reference_analyze_episode_transient_problems,
    _reference_analyze_transient_problems,
    analyze_episode_transient_problems,
    analyze_transient_problems,
)
from repro.experiments.runner import build_network
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
    staggered_maintenance_episode,
)
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY, RBGPDataPlane
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.topology.graph import ASGraph
from repro.types import Color, Outcome, normalize_link

PLANES = ("bgp", "rbgp", "rbgp-norci", "stamp")

#: The fuzzed AS universe; AS 1 is the destination.
FUZZ_ASES = list(range(1, 15))
#: An AS no fuzzed snapshot holds a key for.
OUTSIDER = 999


def _random_topology(seed: int):
    config = InternetTopologyConfig(
        seed=seed, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=30
    )
    graph, _ = generate_internet_topology(config)
    return graph


def _random_path(rng, asn, outsider=False):
    """A fuzzed route of ``asn``: 1-3 hops, sometimes none at all."""
    if rng.random() < 0.2:
        return None
    hops = rng.sample([a for a in FUZZ_ASES if a != asn], rng.randint(1, 3))
    if outsider and rng.random() < 0.1:
        hops[0] = OUTSIDER
    return tuple(hops)


def _random_failover(rng, asn):
    """Fuzzed failover entries; pinned paths may revisit ``asn``."""
    entries = []
    for _ in range(rng.randint(0, 2)):
        path = tuple(rng.sample(FUZZ_ASES, rng.randint(1, 4)))
        entries.append((path[0], path))
    return tuple(entries)


def fuzz_plane(name: str, rng):
    """``(plane, per-AS keys)`` of one plane over the fuzzed universe.

    The no-RCI plane gets a random topology over the same ASes, so
    failed ASes have neighbours that locally detect the failure.
    """
    if name == "bgp":
        return BGPDataPlane(1), (None,)
    if name == "stamp":
        return STAMPDataPlane(1), (
            Color.RED,
            Color.BLUE,
            stamp_plane.unstable_key(Color.RED),
            stamp_plane.unstable_key(Color.BLUE),
        )
    graph = ASGraph()
    for asn in FUZZ_ASES[1:]:
        graph.add_c2p(asn, rng.choice([a for a in FUZZ_ASES if a < asn]))
    return RBGPDataPlane(1, rci=name == "rbgp", graph=graph), (
        PRIMARY,
        FAILOVER,
    )


def fuzz_value(rng, asn, tag, outsider=False):
    """A fuzzed snapshot value for key ``(asn, tag)``."""
    if tag == FAILOVER:
        return _random_failover(rng, asn)
    if isinstance(tag, tuple):  # a STAMP instability flag
        return rng.random() < 0.3
    return _random_path(rng, asn, outsider)


def fuzz_state(rng, tags, outsider=False):
    """A fuzzed snapshot: arbitrary routes, flags and failover entries."""
    return {
        (asn, tag): fuzz_value(rng, asn, tag, outsider)
        for asn in FUZZ_ASES
        for tag in tags
    }


def fuzz_failure_sets(rng):
    links = frozenset(
        normalize_link(*rng.sample(FUZZ_ASES, 2))
        for _ in range(rng.randint(0, 3))
    )
    return links, frozenset(rng.sample(FUZZ_ASES[1:], rng.randint(0, 2)))


def scalar_outcomes(plane, state, sources, failed_links, failed_ases):
    """The reference fates, failed sources counted as BLACKHOLE."""
    outcomes = plane.classify(
        state, sources, failed_links=failed_links, failed_ases=failed_ases
    )
    return {asn: outcomes.get(asn, Outcome.BLACKHOLE) for asn in sources}


class TestTableWalkEquivalence:
    """A freshly built table resolves every source like the scalar walks."""

    @pytest.mark.parametrize("plane_name", PLANES)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_snapshots(self, plane_name, seed):
        rng = random.Random(f"table:{plane_name}:{seed}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = fuzz_state(rng, tags, outsider=seed % 2 == 1)
        failed_links, failed_ases = fuzz_failure_sets(rng)
        sources = FUZZ_ASES + [OUTSIDER]
        table = plane._session_table(state, failed_links, failed_ases)
        assert table.source_outcomes(sources) == scalar_outcomes(
            plane, state, sources, failed_links, failed_ases
        )

    @pytest.mark.parametrize("plane_name", PLANES)
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_classification_matches_classify(self, plane_name, seed):
        """Same dict as the scalar walks: failed sources are skipped."""
        rng = random.Random(f"batch:{plane_name}:{seed}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = fuzz_state(rng, tags)
        failed_links, failed_ases = fuzz_failure_sets(rng)
        failures = dict(failed_links=failed_links, failed_ases=failed_ases)
        assert plane.classify_batch(
            state, FUZZ_ASES, **failures
        ) == plane.classify(state, FUZZ_ASES, **failures)

    @pytest.mark.parametrize("plane_name", PLANES)
    def test_out_of_universe_hop_is_interned(self, plane_name):
        """A next hop with no state entries is a routeless row, not a
        snapshot the table cannot represent."""
        rng = random.Random(f"outsider:{plane_name}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = fuzz_state(rng, tags)
        state[(3, tags[0])] = (OUTSIDER,)
        table = plane._session_table(state, frozenset(), frozenset())
        got = table.source_outcomes(FUZZ_ASES + [OUTSIDER])
        assert got == plane.classify(state, FUZZ_ASES + [OUTSIDER])
        assert got[OUTSIDER] is Outcome.BLACKHOLE
        if plane_name != "stamp":  # a STAMP packet may switch color at 3
            assert got[3] is Outcome.BLACKHOLE

    @pytest.mark.parametrize("plane_name", PLANES)
    def test_destination_outside_the_snapshot_delivers(self, plane_name):
        rng = random.Random(f"nodest:{plane_name}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = {
            key: value
            for key, value in fuzz_state(rng, tags).items()
            if key[0] != 1
        }
        assert plane.classify_batch(state, FUZZ_ASES) == plane.classify(
            state, FUZZ_ASES
        )


class TestIncrementalPropagation:
    """A maintained table tracks full re-classification exactly."""

    @pytest.mark.parametrize("plane_name", PLANES)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_update_streams(self, plane_name, seed):
        rng = random.Random(f"prop:{plane_name}:{seed}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = fuzz_state(rng, tags)
        failed_links, failed_ases = (
            fuzz_failure_sets(rng) if seed % 2 else (frozenset(), frozenset())
        )
        sources = FUZZ_ASES + [OUTSIDER]
        table = plane._session_table(state, failed_links, failed_ases)
        outcomes = table.source_outcomes(sources)
        for _ in range(40):
            # Mutate 1-3 keys (now and then removing one, or routing
            # via an AS outside the snapshot), feed the table, and
            # compare against the scalar walks over the evolved state.
            for _ in range(rng.randint(1, 3)):
                key = (rng.choice(FUZZ_ASES), rng.choice(tags))
                if rng.random() < 0.1:
                    state.pop(key, None)
                    value = None
                else:
                    value = state[key] = fuzz_value(
                        rng, key[0], key[1], outsider=True
                    )
                table.update(key, value)
            transitions = table.collect_transitions()
            # The phase trackers seed from this row set.
            assert table.undelivered == {
                i
                for i, outcome in enumerate(table.source_outcome)
                if outcome is not Outcome.DELIVERED
            }
            fresh = scalar_outcomes(
                plane, state, sources, failed_links, failed_ases
            )
            # Transitions report exactly the sources whose fate changed.
            changed = {asn for asn, _ in transitions}
            assert len(changed) == len(transitions)
            assert changed == {
                asn for asn in sources if outcomes[asn] is not fresh[asn]
            }
            for asn, new in transitions:
                assert fresh[asn] is new
            outcomes = fresh
            assert table.source_outcomes(sources) == fresh

    @pytest.mark.parametrize("plane_name", PLANES)
    def test_unobservable_changes_are_dropped_by_update(self, plane_name):
        """What walks cannot see of a value never reaches derivation."""
        rng = random.Random(f"noop:{plane_name}")
        plane, tags = fuzz_plane(plane_name, rng)
        state = fuzz_state(rng, tags)
        state[(5, tags[0])] = (4, 3, 1)
        table = plane._session_table(state, frozenset(), frozenset())
        assert not table.update((5, tags[0]), (4, 3, 1))
        assert not table.update((5, tags[0]), (4, 2, 1))  # same next hop
        assert table.update((5, tags[0]), (3, 1))
        assert table.update((5, tags[0]), None)


class TestAnalyzerEquivalence:
    """Analyzer-level equivalence with the brute-force twins."""

    @pytest.mark.parametrize("protocol", ("bgp", "rbgp", "rbgp-norci", "stamp"))
    @pytest.mark.parametrize("seed", (3, 11))
    def test_restore_flip_scenarios(self, protocol, seed):
        """A restore changes outcomes with zero trace changes up front."""
        graph = _random_topology(seed)
        rng = random.Random(f"restore:{seed}")
        base = single_provider_link_failure(graph, rng)
        destination = base.destination
        failed = [event.link for _, event in base.steps]
        restored = [(destination, graph.providers(destination)[0])]
        network, plane = build_network(protocol, graph, destination, seed=seed)
        for a, b in restored:
            network.transport.fail_link(a, b)
        network.start()
        initial_state = network.forwarding_state()
        for a, b in failed:
            network.fail_link(a, b)
        for a, b in restored:
            network.restore_link(a, b)
        network.run_to_convergence()
        failed_links = frozenset(normalize_link(a, b) for a, b in failed)
        kwargs = dict(failed_links=failed_links)
        incremental = analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        reference = _reference_analyze_transient_problems(
            network.trace, initial_state, plane, graph.ases, **kwargs
        )
        assert incremental.eligible == reference.eligible
        assert incremental.affected == reference.affected
        assert incremental.looped == reference.looped
        assert incremental.blackholed == reference.blackholed
        assert (
            incremental.permanently_unreachable
            == reference.permanently_unreachable
        )
        assert incremental.timeline == reference.timeline
        assert incremental.problem_timeline == reference.problem_timeline

    @pytest.mark.parametrize("protocol", ("bgp", "rbgp", "stamp"))
    @pytest.mark.parametrize(
        "builder, kwargs",
        [
            (link_flap_episode, {"period": 30.0, "flaps": 2}),
            (staggered_maintenance_episode, {"window": 40.0, "gap": 15.0}),
        ],
    )
    @pytest.mark.parametrize("seed", (2, 7))
    def test_episode_boundaries_on_random_topologies(
        self, protocol, builder, kwargs, seed
    ):
        """Phase-boundary rescans match the reference across planes."""
        graph = _random_topology(seed + 20)
        episode = builder(graph, random.Random(f"ep:{seed}"), **kwargs)
        live, plane = run_live(graph, episode, protocol, seed=seed)
        incremental = analyze_episode_transient_problems(
            live.segments, live.initial_state, plane, graph.ases
        )
        reference = _reference_analyze_episode_transient_problems(
            live.segments, live.live_states, plane, graph.ases
        )
        for got, want in [(incremental.overall, reference.overall)] + list(
            zip(incremental.phases, reference.phases)
        ):
            assert got.eligible == want.eligible
            assert got.affected == want.affected
            assert got.permanently_unreachable == want.permanently_unreachable
            assert got.timeline == want.timeline
            assert got.problem_timeline == want.problem_timeline
