"""The R-BGP twin-start snapshot must be invisible in the results.

``run_episode`` shares one initial convergence between ``rbgp`` and
``rbgp-norci`` (see :mod:`repro.experiments.runner`): the second twin is
restored from a pickle of the first's started network instead of being
re-simulated.  These tests pin that the restored path is byte-identical
to a fresh start, that the sharing is gated on the runtime
RCI-invariance proof, and that the snapshot machinery round-trips a
working network.
"""

from __future__ import annotations

import random

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import (
    _StartSnapshot,
    build_network,
    run_episode,
)
from repro.experiments.scenarios import single_provider_link_failure
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)


@pytest.fixture(scope="module")
def graph():
    config = InternetTopologyConfig(
        n_tier1=3, n_tier2=8, n_tier3=20, n_stub=60, seed=5
    )
    graph, _ = generate_internet_topology(config)
    return graph


def _run_pair(graph, scenario, *, seed):
    """One (norci, rbgp) pair through the public entry point."""
    norci = run_episode(graph, scenario, "rbgp-norci", seed=seed)
    rbgp = run_episode(graph, scenario, "rbgp", seed=seed)
    return norci, rbgp


def _fingerprint(run):
    return (
        run.protocol,
        run.report.affected_count,
        sorted(run.report.affected),
        sorted(run.report.eligible),
        repr(run.convergence_time),
        repr(run.initial_convergence_time),
        run.announcements,
        run.withdrawals,
        run.initial_updates,
    )


class TestSharedStartEquivalence:
    def test_shared_twin_matches_fresh_run(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:0"))
        # Pass 1: sharing enabled (default) — norci fills the slot,
        # rbgp consumes it.
        runner_mod._RBGP_START_SLOT = None
        shared = _run_pair(graph, scenario, seed=7)
        # Pass 2: sharing suppressed — every run starts fresh.
        runner_mod._RBGP_START_SLOT = None
        original_key = runner_mod._rbgp_start_key
        runner_mod._rbgp_start_key = lambda *a: (object(),)  # never matches
        try:
            fresh = _run_pair(graph, scenario, seed=7)
        finally:
            runner_mod._rbgp_start_key = original_key
            runner_mod._RBGP_START_SLOT = None
        for a, b in zip(shared, fresh):
            assert _fingerprint(a) == _fingerprint(b)

    def test_slot_is_filled_and_consumed(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:1"))
        runner_mod._RBGP_START_SLOT = None
        run_episode(graph, scenario, "rbgp-norci", seed=11)
        assert runner_mod._RBGP_START_SLOT is not None
        run_episode(graph, scenario, "rbgp", seed=11)
        assert runner_mod._RBGP_START_SLOT is None  # consumed by the twin

    def test_different_seed_does_not_hit_the_slot(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:2"))
        runner_mod._RBGP_START_SLOT = None
        run_episode(graph, scenario, "rbgp-norci", seed=3)
        slot_before = runner_mod._RBGP_START_SLOT
        assert slot_before is not None
        run_episode(graph, scenario, "rbgp", seed=4)  # different seed
        # The mismatched run started fresh and re-filled the slot with
        # its own key rather than consuming the old one.
        assert runner_mod._RBGP_START_SLOT is not None
        key = runner_mod._RBGP_START_SLOT[0]
        assert key == (graph, scenario.destination, 4, ())
        runner_mod._RBGP_START_SLOT = None


class TestStartSnapshot:
    def test_roundtrip_preserves_graph_identity_and_state(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:3"))
        network, _plane = build_network(
            "rbgp", graph, scenario.destination, seed=2
        )
        network.start()
        snapshot = _StartSnapshot(network, graph)
        restored = snapshot.restore()
        assert restored.graph is graph  # shared by reference, not copied
        assert restored.engine.now == network.engine.now
        assert restored.stats.announcements == network.stats.announcements
        assert set(restored.speakers) == set(network.speakers)
        for asn, speaker in network.speakers.items():
            assert restored.speakers[asn].best == speaker.best

    def test_restored_network_still_simulates(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:4"))
        network, _plane = build_network(
            "rbgp", graph, scenario.destination, seed=2
        )
        network.start()
        snapshot = _StartSnapshot(network, graph)
        restored = snapshot.restore()
        restored.set_rci(False)
        for _, event in scenario.steps:
            restored.fail_link(*event.link)
        restored.run_to_convergence()  # must not raise
        assert all(not sp.rci for sp in restored.speakers.values())

    def test_rci_invariance_flag_gates_sharing(self, graph):
        scenario = single_provider_link_failure(graph, random.Random("twin:5"))
        runner_mod._RBGP_START_SLOT = None
        network, _plane = build_network(
            "rbgp-norci", graph, scenario.destination, seed=9
        )
        network.start()
        # Force-poison the invariance proof: sharing must be refused.
        next(iter(network.speakers.values())).rci_sensitive_state = True
        assert not network.start_is_rci_invariant()


class TestPreStartFailuresRefuseSharing:
    def test_session_down_before_start_poisons_invariance(self, graph):
        """``pre_failed_links``-style pre-start failures must disable sharing."""
        scenario = single_provider_link_failure(graph, random.Random("twin:6"))
        network, _plane = build_network(
            "rbgp", graph, scenario.destination, seed=13
        )
        # A link failed before initial convergence (what run_episode
        # does for episode.pre_failed_links) resets sessions, which is
        # RCI-sensitive (known-bad-links / purge divergence).
        a = scenario.destination
        b = graph.neighbors(a)[0]
        network.transport.fail_link(a, b)
        network.start()
        assert not network.start_is_rci_invariant()
