"""Fuzzed differential wall for cross-boundary table patching.

The episode analyzer carries one state dict and one successor table
*across* phase boundaries — the dict replayed in place from the
episode's one snapshot, the table switched to each phase's failure
sets as a patch
(:meth:`repro.forwarding.walk.SuccessorTable.apply_boundary`) —
instead of photographing the network and rebuilding per segment.
That rests on the trace being *complete*, which no run-time check
verifies any more; these tests do, with a stronger check than the
run-time diff they replace.  Every fuzzed episode — mixed link fail
and restore and AS fail events, 2–64 phases, silent restores and
re-fails, every plane — and every packaged builder it names is driven
by the test-side collector (``live_collector.py``), which photographs
the live network ahead of each injector and at quiescence:

* **trace completeness**: the one snapshot replayed through the trace
  equals the live ``forwarding_state()`` at every boundary and at
  quiescence — and a speaker that forgets to record one forwarding
  change fails it (shown with a deliberately broken speaker);
* the incremental analyzer equals the brute-force reference twin,
  which is fed the live photographs and so never derives a phase's
  starting state from the trace under test;

and the individual load-bearing pieces are pinned:

* at every boundary the patched table equals a table built from
  scratch over the carried state and the phase's failure sets;
* a next hop that leaves the indexed AS universe *mid-episode* is
  interned on the fly and the analysis stays exact across later
  boundaries;
* property (hypothesis), every plane: ``apply_boundary``'s transitions
  are exactly the sources whose outcome the failure-set delta changed,
  and the patched table equals a fresh one — and an R-BGP table that
  stops re-deriving its diverting rows fails it on both variants;
* the episode analyzer builds one table per episode, and a boundary
  re-derives only the rows it can change (counted on R-BGP).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from live_collector import (
    assert_live_episode_checks_out,
    assert_matches_reference,
    assert_trace_complete,
    check_quiescent,
    run_live,
    staggered_link_maintenance,
    staggered_two_link_failures,
)
from reference.walk import source_outcomes
from repro.analysis.transient import (
    EpisodeSegment,
    _IncrementalScan,
    analyze_episode_transient_problems,
)
from repro.bgp.ribs import AdjRibIn, Route
from repro.bgp.speaker import BGPSpeaker
from repro.experiments.runner import build_network, clear_twin_start_cache
from repro.experiments.scenarios import (
    Episode,
    fail_as,
    fail_link,
    link_flap_episode,
    provider_node_failure,
    restore_link,
)
from repro.forwarding.rbgp_plane import _RBGPTable
from repro.forwarding.stamp_plane import STAMPDataPlane
from repro.forwarding.walk import SuccessorTable
from repro.rbgp import network as rbgp_network
from repro.rbgp.speaker import RBGPSpeaker
from repro.sim.tracing import ForwardingChange, ForwardingTrace
from repro.sim.transport import Transport
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.types import Color, EventType, normalize_link
from test_successor_table import (
    FUZZ_ASES,
    PLANES,
    _random_topology,
    fuzz_failure_sets,
    fuzz_plane,
    fuzz_state,
    scalar_outcomes,
)


def _random_episode(graph, rng, n_phases: int) -> Episode:
    """A seeded random episode: one event per phase, mixed kinds.

    The first three phases (when there are at least four) are a
    deterministic fail → restore → re-fail of one link, so every
    generated episode of that size exercises a restore boundary and a
    re-fail boundary; the rest is a random walk over feasible events
    (links fail and come back, ASes fail for good, never the
    destination).
    """
    links = sorted(normalize_link(a, b) for a, b, _ in graph.links())
    candidates = [asn for asn in graph.ases if graph.is_multihomed(asn)]
    destination = rng.choice(candidates)
    up_links = set(links)
    down_links: set = set()
    up_ases = {asn for asn in graph.ases if asn != destination}
    down_ases: set = set()
    steps = []
    offset = 0.0

    def push(event):
        steps.append((offset, event))

    def do_fail_link():
        link = rng.choice(sorted(up_links))
        up_links.discard(link)
        down_links.add(link)
        push(fail_link(*link))

    phases = []
    if n_phases >= 4:
        refail = rng.choice(links)
        phases = ["refail-0", "refail-1", "refail-2"]
    while len(phases) < n_phases:
        phases.append("random")
    for kind in phases:
        offset += rng.choice([4.0, 7.0, 12.0])
        if kind == "refail-0" or kind == "refail-2":
            up_links.discard(refail)
            down_links.add(refail)
            push(fail_link(*refail))
            continue
        if kind == "refail-1":
            down_links.discard(refail)
            up_links.add(refail)
            push(restore_link(*refail))
            continue
        roll = rng.random()
        if roll < 0.40 or (not down_links and not down_ases):
            do_fail_link()
        elif roll < 0.65 and down_links:
            link = rng.choice(sorted(down_links))
            down_links.discard(link)
            up_links.add(link)
            push(restore_link(*link))
        elif roll < 0.85 and len(up_ases) > 3:
            asn = rng.choice(sorted(up_ases))
            up_ases.discard(asn)
            down_ases.add(asn)
            push(fail_as(asn))
        else:
            do_fail_link()
    return Episode(destination=destination, steps=tuple(steps))


class TestFuzzedEpisodes:
    """Seeded random episodes: the trace is complete, and the one-
    snapshot analysis diffs clean against the reference twin."""

    @pytest.mark.parametrize("protocol", PLANES)
    @pytest.mark.parametrize(
        "seed, n_phases",
        [(0, 2), (1, 5), (2, 9), (3, 17), (4, 33)],
    )
    def test_random_episodes(self, protocol, seed, n_phases):
        graph = _random_topology(seed % 3)
        rng = random.Random(f"fuzz:{protocol}:{seed}:{n_phases}")
        episode = _random_episode(graph, rng, n_phases)
        live, plane = run_live(graph, episode, protocol)
        assert len(live.segments) == n_phases
        assert_live_episode_checks_out(live, plane, list(graph.ases))

    @pytest.mark.parametrize("protocol", PLANES)
    def test_long_horizon_64_phases(self, protocol):
        graph = _random_topology(1)
        rng = random.Random(f"fuzz64:{protocol}")
        episode = _random_episode(graph, rng, 64)
        live, plane = run_live(graph, episode, protocol)
        assert len(live.segments) == 64
        assert_live_episode_checks_out(live, plane, list(graph.ases))


class TestPackagedBuilders:
    """The packaged families, driven the same way on every plane."""

    @pytest.mark.parametrize("protocol", PLANES)
    @pytest.mark.parametrize(
        "builder, kwargs",
        [
            (link_flap_episode, {"period": 2.0, "flaps": 8}),
            (link_flap_episode, {"period": 35.0, "flaps": 2}),
            (staggered_link_maintenance, {"window": 50.0, "gap": 20.0}),
            (staggered_two_link_failures, {"delay": 12.0}),
            (provider_node_failure, {}),
        ],
    )
    @pytest.mark.parametrize("seed", (0, 1))
    def test_trace_complete_and_reference_equal(
        self, protocol, builder, kwargs, seed
    ):
        graph = _random_topology(seed)
        episode = builder(graph, random.Random(f"packaged:{seed}"), **kwargs)
        live, plane = run_live(graph, episode, protocol, seed=seed)
        assert len(live.segments) == len(episode.instants())
        assert_live_episode_checks_out(live, plane, list(graph.ases))


class TestAnUnrecordedChangeIsCaught:
    """The wall has teeth: lose one forwarding change and it fails.

    A session-down handler that reroutes without telling the trace (the
    bug a forgotten ``_record_best_change`` would be) leaves the
    analysis on a state the network never had; at run time nothing
    notices any more, so this is the check that must.  The episode
    puts a boundary one millisecond after a provider's failure —
    inside the minimum message delay, so its neighbors still hold the
    routes they fell back to when the camera fires.
    """

    def _failure_episode(self):
        graph = _random_topology(0)
        base = provider_node_failure(graph, random.Random("broken"))
        (_, down), = base.steps
        other = next(
            p for p in graph.providers(base.destination) if p != down.asn
        )
        episode = Episode(
            destination=base.destination,
            steps=(
                (0.0, down),
                (0.001, fail_link(base.destination, other)),
            ),
        )
        return graph, episode

    def test_intact_speaker_passes(self):
        graph, episode = self._failure_episode()
        live, plane = run_live(graph, episode, "bgp")
        assert_live_episode_checks_out(live, plane, list(graph.ases))

    def test_silent_session_down_fails_trace_completeness(self, monkeypatch):
        graph, episode = self._failure_episode()
        on_session_down = BGPSpeaker.on_session_down

        def silent_session_down(self, peer):
            # "Forgot to record": the reaction writes to a throwaway trace.
            trace, self.trace = self.trace, ForwardingTrace()
            try:
                on_session_down(self, peer)
            finally:
                self.trace = trace

        monkeypatch.setattr(BGPSpeaker, "on_session_down", silent_session_down)
        live, _ = run_live(graph, episode, "bgp")
        with pytest.raises(AssertionError, match="at boundary 1"):
            assert_trace_complete(live)


class RouteThroughTheTargetSpeaker(RBGPSpeaker):
    """Broken on purpose: offers its primary next hop alternates that
    pass through that very next hop (the ``target in route.path``
    filter is gone)."""

    def compute_failover_route(self):
        best = self.best
        if best is None or best.is_origin:
            return None
        primary_links = self._links(best.path)
        return min(
            (
                route
                for route in self.adj_rib_in.routes()
                if route.learned_from != best.learned_from
            ),
            key=lambda route: self._failover_key_for(route, primary_links),
            default=None,
        )


class TestAWrongFailoverPickIsCaught:
    """``check_quiescent`` has teeth: it runs at every stop of every
    episode above (through ``collect_live``), and a speaker whose
    failover selection breaks R-BGP's rule fails it."""

    @pytest.mark.parametrize("protocol", ("rbgp", "rbgp-norci"))
    def test_a_failover_through_its_own_target_fails(
        self, monkeypatch, protocol
    ):
        graph = _random_topology(0)
        episode = link_flap_episode(
            graph, random.Random("teeth"), period=2.0, flaps=2
        )
        monkeypatch.setattr(
            rbgp_network, "RBGPSpeaker", RouteThroughTheTargetSpeaker
        )
        try:
            with pytest.raises(AssertionError, match="the most disjoint is"):
                run_live(graph, episode, protocol)
        finally:
            clear_twin_start_cache()  # holds a snapshot of the broken net

    def test_events_left_in_the_queue_fail(self):
        graph = _random_topology(0)
        network, _ = build_network("bgp", graph, graph.ases[0], seed=0)
        network.start()
        check_quiescent(network, not_before=0.0)
        network.engine.schedule(1.0, lambda: None)
        with pytest.raises(AssertionError, match="still queued"):
            check_quiescent(network, not_before=0.0)
        with pytest.raises(AssertionError):
            check_quiescent(
                network, not_before=network.engine.now + 1.0, drained=False
            )


class TestAStaleAdvertisementIsCaught:
    """Adj-RIB-Out == ``export_for`` at every drained stop: a speaker
    whose update dispatch passes over one peer — the destination never
    tells one of its providers anything — leaves that session's
    Adj-RIB-Out behind its export decision, and the first stop says so.
    ``_dispatch_update`` is the step every stale peer takes, from the
    fan-out and from ``refresh_peer`` alike."""

    @pytest.mark.parametrize("protocol", PLANES)
    def test_a_refresh_that_skips_one_peer_fails(self, monkeypatch, protocol):
        graph = _random_topology(0)
        episode = link_flap_episode(
            graph, random.Random("teeth"), period=2.0, flaps=2
        )
        skipper = episode.destination
        skipped = graph.providers(skipper)[-1]
        dispatch_update = BGPSpeaker._dispatch_update

        def forgetful(self, peer, *args):
            if not (self.asn == skipper and peer == skipped):
                dispatch_update(self, peer, *args)

        run_live(graph, episode, protocol)  # the intact speaker passes
        clear_twin_start_cache()
        monkeypatch.setattr(BGPSpeaker, "_dispatch_update", forgetful)
        try:
            with pytest.raises(
                AssertionError,
                match=f"AS {skipper} .* last told {skipped} None, it would now",
            ):
                run_live(graph, episode, protocol)
        finally:
            clear_twin_start_cache()  # holds a snapshot of the broken net


class TestAWrongTieBreakIsCaught:
    """Converged BGP equals the static Gao-Rexford solution at every
    drained stop: a decision process that breaks ties on the *highest*
    neighbor ASN still converges, just not to the state the simulator's
    tie-breaking defines, and the first stop says so."""

    def test_a_highest_neighbor_tie_break_fails(self, monkeypatch):
        graph = _random_topology(0)
        episode = link_flap_episode(
            graph, random.Random("teeth"), period=2.0, flaps=2
        )
        run_live(graph, episode, "bgp")  # the intact speaker passes

        update = AdjRibIn.update

        def highest_neighbor(self, neighbor, route):
            # Every stored key ranks ties by the negated neighbor, so the
            # rescans and the incremental comparisons agree on it.
            pref, lock, length, _ = route.key
            update(self, neighbor, Route(
                route.path, neighbor, route.et, route.lock,
                (pref, lock, length, -neighbor),
            ))

        monkeypatch.setattr(AdjRibIn, "update", highest_neighbor)
        with pytest.raises(AssertionError, match="the stable solution is"):
            run_live(graph, episode, "bgp")


class TestASwappedRBGPPrimaryIsCaught:
    """Both R-BGP variants run BGP's decision process, so their primary
    selection equals the static solution at every drained stop too.
    One speaker whose ``best`` is swapped for another Adj-RIB-In route
    of the same class — ranked first by its own decision process, so
    its exports and its failover follow it and only the oracle can tell
    — fails the next drained stop."""

    @pytest.mark.parametrize("protocol", ("rbgp", "rbgp-norci"))
    def test_one_swapped_best_fails(self, protocol):
        graph = _random_topology(0)
        network, _ = build_network(protocol, graph, graph.ases[0], seed=0)
        network.start()
        check_quiescent(network, not_before=0.0)  # the intact network passes
        asn, speaker, neighbor = next(
            (asn, speaker, route.learned_from)
            for asn, speaker in sorted(network.speakers.items())
            if speaker.best is not None and not speaker.best.is_origin
            for route in sorted(
                speaker.adj_rib_in.routes(), key=lambda r: r.learned_from
            )
            if route.learned_from != speaker.best.learned_from
            and route.key[0] == speaker.best.key[0]
        )

        class SwappedRib(AdjRibIn):
            """Ranks ``neighbor``'s route first within its class: its
            stored lock rank drops below every other (R-BGP's is 1), so
            Gao-Rexford still holds, the class ranks first."""

            def update(self, nbr, route):
                if nbr == neighbor:
                    pref, _, length, _ = route.key
                    route = Route(
                        route.path, nbr, route.et, route.lock,
                        (pref, -1, length, nbr),
                    )
                super().update(nbr, route)

        rib = SwappedRib()
        for route in list(speaker.adj_rib_in.routes()):
            rib.update(route.learned_from, route)
        speaker.adj_rib_in = rib
        # Re-decide as a received update would: selection, then failover.
        speaker._run_decision(EventType.NO_LOSS, None)
        speaker._update_failover_advertisement()
        network.run_to_convergence()
        assert speaker.best.learned_from == neighbor
        with pytest.raises(
            AssertionError, match=f"AS {asn} selected .* the stable solution is"
        ):
            check_quiescent(network, not_before=0.0)


class TestAnUncondemnedMessageIsCaught:
    """Nothing in flight over a dead session, at every stop: a failure
    path that forgets ``_condemn_in_flight`` leaves the updates the
    first failure set off queued on the link the second one takes
    down.  Both boundaries sit inside the 10 ms minimum message delay,
    so the camera of the third finds them still in flight."""

    def _episode(self):
        graph = _random_topology(0)
        base = link_flap_episode(graph, random.Random("teeth"), flaps=1)
        (_, down), _ = base.steps
        destination, provider = down.link
        # The provider re-advertises to every other neighbor at once.
        onward = next(n for n in graph.neighbors(provider) if n != destination)
        return graph, Episode(
            destination=destination,
            steps=(
                (0.0, down),
                (0.001, fail_link(provider, onward)),
                (0.002, restore_link(destination, provider)),
            ),
        )

    @pytest.mark.parametrize("protocol", PLANES)
    def test_a_failure_that_condemns_nothing_fails(self, monkeypatch, protocol):
        graph, episode = self._episode()
        run_live(graph, episode, protocol)  # the intact transport passes
        clear_twin_start_cache()
        monkeypatch.setattr(
            Transport, "_condemn_in_flight", lambda self, asn, peers: None
        )
        try:
            with pytest.raises(
                AssertionError, match="in flight .* over a session that is down"
            ):
                run_live(graph, episode, protocol)
        finally:
            clear_twin_start_cache()


class TestPatchedVsRebuilt:
    """A table patched across a boundary equals one built there."""

    @pytest.mark.parametrize("protocol", PLANES)
    def test_forced_rebuild_is_identical(self, monkeypatch, protocol):
        graph = _random_topology(2)
        rng = random.Random(f"pvr:{protocol}")
        episode = _random_episode(graph, rng, 9)
        live, plane = run_live(graph, episode, protocol)
        ases = list(graph.ases)

        # The failure sets of the boundary just crossed, until the
        # next scan has flushed the patched table and compared it.
        crossed = []
        compared = []
        apply_boundary = SuccessorTable.apply_boundary
        scan = _IncrementalScan.scan

        def boundary_spy(self, failed_links, failed_ases):
            apply_boundary(self, failed_links, failed_ases)
            crossed[:] = [(failed_links, failed_ases)]

        def scan_spy(self, *args):
            scan(self, *args)
            if crossed:
                rebuilt = plane._session_table(self.state, *crossed.pop())
                compared.append(
                    source_outcomes(self.table, ases)
                    == source_outcomes(rebuilt, ases)
                )

        monkeypatch.setattr(SuccessorTable, "apply_boundary", boundary_spy)
        monkeypatch.setattr(_IncrementalScan, "scan", scan_spy)
        assert_matches_reference(live.segments, live.live_states, plane, ases)
        # Every boundary is followed by a scan, except possibly the
        # first segment's start (nothing precedes it to be rescanned).
        assert len(compared) >= len(live.segments) - 1 and all(compared)


#: The 62-AS bench graph (``benchmarks/ab_scale.py --scale 0``).
BENCH_62 = InternetTopologyConfig(
    seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
)


class TestABoundaryCostsWhatItTouches:
    """One table per episode, and a boundary re-derives the rows it can
    change — not every row, which is what R-BGP's table used to do."""

    @pytest.mark.parametrize("protocol", PLANES)
    def test_a_64_phase_storm_builds_one_table(self, monkeypatch, protocol):
        graph = _random_topology(1)
        episode = link_flap_episode(
            graph, random.Random("one table"), period=2.0, flaps=32
        )
        live, plane = run_live(graph, episode, protocol)
        assert len(live.segments) == 64
        built = []
        session_table = type(plane)._session_table

        def counting(self, *args):
            built.append(args[1:])
            return session_table(self, *args)

        monkeypatch.setattr(type(plane), "_session_table", counting)
        analyze_episode_transient_problems(
            live.segments, live.initial_state, plane, graph.ases
        )
        # Built failure-free over the snapshot; every phase's
        # eligibility is a detour of that one table.
        assert built == [(frozenset(), frozenset())]

    @pytest.mark.parametrize("protocol", ("rbgp", "rbgp-norci"))
    def test_an_rbgp_boundary_re_derives_endpoints_and_diverting_rows(
        self, monkeypatch, protocol
    ):
        graph, _ = generate_internet_topology(BENCH_62)
        destination = next(a for a in graph.ases if graph.is_multihomed(a))
        network, plane = build_network(protocol, graph, destination, seed=0)
        network.start()
        state = network.forwarding_state()
        table = plane._session_table(state, frozenset(), frozenset())
        assert len(table.asns) == 62 and not table.diverting
        # A link some AS forwards over, neither end the destination
        # (whose row delivers whatever happens and is never derived).
        asn, hop = next(
            (asn, path[0])
            for (asn, tag), path in sorted(state.items())
            if tag == "primary" and path and destination not in (asn, path[0])
        )
        derived = []
        derive = _RBGPTable._derive

        def counting(self, i):
            derived.append(self.asns[i])
            return derive(self, i)

        def boundary(failed_links, failed_ases):
            derived.clear()
            monkeypatch.setattr(_RBGPTable, "_derive", counting)
            table.apply_boundary(failed_links, failed_ases)
            monkeypatch.setattr(_RBGPTable, "_derive", derive)
            table.collect_transitions()
            fresh = plane._session_table(state, failed_links, failed_ases)
            assert source_outcomes(table, graph.ases) == source_outcomes(
                fresh, graph.ases
            )
            return sorted(derived)

        nobody = frozenset()
        # The failure: its two endpoints (nothing diverted before it).
        failed = boundary({normalize_link(asn, hop)}, nobody)
        assert failed == sorted((asn, hop))
        diverting = {table.asns[i] for i in table.diverting}
        assert diverting == {asn}
        # The restore: the endpoints and every row the failure diverted.
        restored = boundary(nobody, nobody)
        assert restored == sorted({asn, hop} | diverting)
        # An AS failure: the AS and the rows whose primary it is.
        preds = {table.asns[i] for i in table.hop_preds[hop]}
        down = boundary(nobody, frozenset({hop}))
        assert down == sorted({hop} | preds)
        # Every one of these boundaries used to re-derive all 62 rows.
        assert [len(failed), len(restored), len(down)] == [2, 2, 8]


def _random_stamp_state(rng):
    """A fuzzed STAMP snapshot (arbitrary routes/flags)."""
    _, tags = fuzz_plane("stamp", rng)
    return fuzz_state(rng, tags)


def _broken_mid_episode_segments():
    """Synthetic STAMP episode that leaves the AS universe in segment 1.

    Segment 1's trace introduces a next hop no snapshot holds a key
    for (the table interns it as a routeless row on the fly), then
    routes away from it again; segment 2 crosses another boundary
    with the interned row in the table.
    """
    rng = random.Random("broken-mid")
    state = _random_stamp_state(rng)
    link = normalize_link(2, 5)
    seg0 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[ForwardingChange(1.0, 4, Color.RED, (1,))]
        ),
        failed_links=frozenset({link}),
        failed_ases=frozenset(),
        start_time=0.0,
    )
    state1 = dict(state)
    state1[(4, Color.RED)] = (1,)
    seg1 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[
                ForwardingChange(6.0, 3, Color.RED, (999,)),
                ForwardingChange(7.0, 3, Color.RED, (2, 1)),
            ]
        ),
        failed_links=frozenset(),
        failed_ases=frozenset(),
        start_time=5.0,
    )
    state2 = dict(state1)
    state2[(3, Color.RED)] = (2, 1)
    seg2 = EpisodeSegment(
        trace=ForwardingTrace(
            changes=[ForwardingChange(11.0, 6, Color.BLUE, None)]
        ),
        failed_links=frozenset({normalize_link(1, 3)}),
        failed_ases=frozenset({7}),
        start_time=10.0,
    )
    return FUZZ_ASES, [seg0, seg1, seg2], [state, state1, state2]


class TestOutOfUniverseMidEpisode:
    def test_matches_reference(self):
        ases, segments, states = _broken_mid_episode_segments()
        assert_matches_reference(
            segments, states, STAMPDataPlane(destination=1), ases
        )


def assert_boundary_patch_exact(name: str, seed: int) -> None:
    """apply_boundary's transitions are exactly the changed sources.

    Completeness: every source whose fate the failure-set delta
    changed must be reported (with its new fate).  Precision: only
    changed sources are reported.  The patched table must agree with a
    table built from scratch under the new sets, and with the scalar
    walks, for every source.
    """
    rng = random.Random(f"hyp:boundary:{name}:{seed}")
    plane, tags = fuzz_plane(name, rng)
    state = fuzz_state(rng, tags, outsider=seed % 2 == 1)
    old_links, old_ases = fuzz_failure_sets(rng)
    new_links, new_ases = fuzz_failure_sets(rng)

    patched = plane._session_table(state, old_links, old_ases)
    baseline = source_outcomes(patched, FUZZ_ASES)
    assert baseline == scalar_outcomes(
        plane, state, FUZZ_ASES, old_links, old_ases
    ), name
    patched.apply_boundary(new_links, new_ases)
    transitions = dict(patched.collect_transitions())

    expected = source_outcomes(
        plane._session_table(state, new_links, new_ases), FUZZ_ASES
    )
    assert expected == scalar_outcomes(
        plane, state, FUZZ_ASES, new_links, new_ases
    ), name
    assert {
        asn: expected[asn]
        for asn in FUZZ_ASES
        if baseline[asn] is not expected[asn]
    } == {
        asn: outcome
        for asn, outcome in transitions.items()
        if asn in baseline
    }, name
    assert source_outcomes(patched, FUZZ_ASES) == expected, name


@settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_apply_boundary_invalidation_covers_every_changed_source(seed):
    """:func:`assert_boundary_patch_exact`, every plane."""
    for name in PLANES:
        assert_boundary_patch_exact(name, seed)


def _rows_without_diverting(self, changed_pairs, toggled_ases):
    return SuccessorTable._boundary_rows(self, changed_pairs, toggled_ases)


_derive = _RBGPTable._derive


def _derive_forgetting_diverting(self, i):
    derived = _derive(self, i)
    self.diverting.discard(i)
    return derived


class TestABrokenRBGPBoundaryIsCaught:
    """The patched-equals-freshly-built wall has teeth on R-BGP: a row
    whose primary is unusable rides failover hops and (without RCI)
    reads the local-detector set, so a table that stops re-deriving
    the diverting rows at a boundary — because ``_boundary_rows``
    leaves them out, or because ``_derive`` never records one — goes
    stale, on both variants."""

    @pytest.mark.parametrize("variant", ("rbgp", "rbgp-norci"))
    @pytest.mark.parametrize(
        "attribute, broken",
        [
            ("_boundary_rows", _rows_without_diverting),
            ("_derive", _derive_forgetting_diverting),
        ],
    )
    def test_a_table_that_skips_diverting_rows_fails(
        self, monkeypatch, variant, attribute, broken
    ):
        seeds = range(200)
        for seed in seeds:  # the intact table passes every one
            assert_boundary_patch_exact(variant, seed)
        monkeypatch.setattr(_RBGPTable, attribute, broken)
        caught = 0
        for seed in seeds:
            try:
                assert_boundary_patch_exact(variant, seed)
            except AssertionError:
                caught += 1
        assert caught, f"no seed of {len(seeds)} caught the broken table"
