"""Tests of the timed failure-episode engine.

Covers the episode model's validation, mid-run restore/re-fail on all
three protocol planes, an AS failure that stays failed (a link
restored to it forms no session), the R-BGP twin-start cache keying
regression, campaign determinism across worker counts, and what a
phase may cost: one ``forwarding_state()`` call and one state dict per
episode, at unit values equal in every field to the ones the per-phase
snapshots produced.  (That a one-phase episode reproduces the paper's
single-instant semantics byte for byte is pinned by
``test_single_instant_golden.py``.)
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.analysis.transient import _IncrementalScan
from repro.bgp.network import BGPNetwork
from repro.errors import ConfigurationError
from repro.experiments import runner as runner_mod
from repro.experiments.figures import link_flap_comparison
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import ExperimentConfig, run_episode
from repro.experiments.scenarios import (
    Episode,
    EpisodeEvent,
    EventKind,
    fail_as,
    fail_link,
    link_flap_episode,
    restore_link,
)
from repro.rbgp.network import RBGPNetwork
from repro.stamp.network import STAMPNetwork
from repro.topology.generators import (
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)

PLANES = ("bgp", "rbgp", "rbgp-norci", "stamp")

TINY = InternetTopologyConfig(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35)


@pytest.fixture
def graph():
    return example_paper_topology()


class TestEpisodeModel:
    def test_events_validate_their_payload(self):
        with pytest.raises(ConfigurationError):
            EpisodeEvent(kind=EventKind.LINK_FAIL, asn=90)
        with pytest.raises(ConfigurationError):
            EpisodeEvent(kind=EventKind.AS_FAIL, link=(1, 2))
        assert fail_link(1, 2).link == (1, 2)
        assert fail_as(7).asn == 7

    def test_steps_must_be_time_ordered(self):
        with pytest.raises(ConfigurationError):
            Episode(
                destination=90,
                steps=((5.0, fail_link(90, 80)), (1.0, restore_link(90, 80))),
            )
        with pytest.raises(ConfigurationError):
            Episode(destination=90, steps=((-1.0, fail_link(90, 80)),))

    def test_instants_group_equal_offsets(self):
        episode = Episode(
            destination=90,
            steps=(
                (0.0, fail_link(90, 80)),
                (0.0, fail_link(90, 70)),
                (10.0, restore_link(90, 80)),
            ),
        )
        instants = episode.instants()
        assert [offset for offset, _, _ in instants] == [0.0, 10.0]
        assert instants[0][1] == (0, 1)
        assert instants[1][1] == (2,)

    def test_builders_are_deterministic_per_rng(self, graph):
        a = link_flap_episode(graph, random.Random("x"))
        b = link_flap_episode(graph, random.Random("x"))
        assert a == b

    def test_flap_episode_alternates_fail_and_restore(self, graph):
        episode = link_flap_episode(graph, random.Random("f"), flaps=3)
        kinds = [event.kind for _, event in episode.steps]
        assert kinds == [
            EventKind.LINK_FAIL, EventKind.LINK_RESTORE,
        ] * 3
        links = {event.link for _, event in episode.steps}
        assert len(links) == 1  # one link flapping throughout


class TestMidRunRestore:
    @pytest.mark.parametrize("protocol", PLANES)
    def test_restore_then_refail_in_one_episode(self, graph, protocol):
        """A full flap (fail, restore, re-fail, restore) on each plane."""
        episode = link_flap_episode(
            graph, random.Random("flap"), period=40.0, flaps=2
        )
        run = run_episode(graph, episode, protocol, seed=7)
        assert len(run.phases) == 4
        assert [p.events[0].kind for p in run.phases] == [
            EventKind.LINK_FAIL, EventKind.LINK_RESTORE,
            EventKind.LINK_FAIL, EventKind.LINK_RESTORE,
        ]
        # The link ends restored: nobody is permanently partitioned.
        assert run.report.permanently_unreachable == set()
        assert run.convergence_time >= 120.0  # spans all four phases

    @pytest.mark.parametrize("protocol", PLANES)
    def test_run_is_deterministic(self, graph, protocol):
        episode = link_flap_episode(graph, random.Random("det"), period=35.0)
        a = run_episode(graph, episode, protocol, seed=9)
        b = run_episode(graph, episode, protocol, seed=9)
        assert a.report.timeline == b.report.timeline
        assert a.report.affected == b.report.affected
        assert (a.announcements, a.withdrawals) == (b.announcements, b.withdrawals)
        assert [p.report.affected_count for p in a.phases] == [
            p.report.affected_count for p in b.phases
        ]

    def test_phase_reports_attribute_disruption_to_the_event(self, graph):
        """Under BGP, each *failure* phase disrupts; restores do not."""
        episode = Episode(
            destination=90,
            steps=(
                (0.0, fail_link(90, 80)),
                (40.0, restore_link(90, 80)),
                (80.0, fail_link(90, 80)),
            ),
        )
        run = run_episode(graph, episode, "bgp", seed=1)
        per_phase = [p.report.affected_count for p in run.phases]
        assert per_phase[0] > 0
        assert per_phase[1] == 0
        assert per_phase[2] > 0
        # Phase marks carry the injection metadata.
        assert [p.step_indices for p in run.phases] == [(0,), (1,), (2,)]
        assert run.phases[1].time - run.phases[0].time == pytest.approx(40.0)


class TestAFailedASStaysFailed:
    @pytest.mark.parametrize("protocol", ("bgp", "rbgp", "stamp"))
    def test_an_as_failed_in_a_later_phase_is_no_victim(self, graph, protocol):
        """The destination loses its link to 80, then provider 70 fails:
        70 is eligible in phase 0 alone, not in phase 1 nor in the
        episode-wide report."""
        episode = Episode(
            destination=90,
            steps=((0.0, fail_link(90, 80)), (60.0, fail_as(70))),
        )
        run = run_episode(graph, episode, protocol, seed=2)
        assert [70 in p.report.eligible for p in run.phases] == [True, False]
        assert 70 not in run.report.eligible
        assert 70 not in run.report.affected

    def test_restore_link_while_endpoint_as_down_forms_no_session(self, graph):
        """Regression: restoring a link whose endpoint AS is dark must
        not put the dark AS in the live neighbor's session set."""
        bgp = BGPNetwork(graph, 90)
        bgp.start()
        bgp.fail_as(70)
        bgp.run_to_convergence()
        bgp.restore_link(70, 90)  # 70 still down: link up, no session
        assert 70 not in bgp.speakers[90].sessions
        bgp.run_to_convergence()
        assert 70 not in bgp.speakers[90].sessions

        stamp = STAMPNetwork(graph, 90)
        stamp.start()
        stamp.fail_as(70)
        stamp.run_to_convergence()
        stamp.restore_link(70, 90)
        assert 70 not in stamp.speakers[90].red.sessions
        stamp.run_to_convergence()
        assert 70 not in stamp.speakers[90].blue.sessions

    @pytest.mark.parametrize("protocol", ("bgp", "rbgp", "stamp"))
    def test_a_link_restored_to_a_dark_as_changes_nothing(
        self, graph, protocol
    ):
        """End-to-end: the link recovers while its endpoint AS is dark,
        so the run sends the updates and finds the problems of the
        AS failure alone."""
        failure = ((0.0, fail_as(70)),)
        alone = run_episode(
            graph, Episode(destination=90, steps=failure), protocol, seed=8
        )
        run = run_episode(
            graph,
            Episode(
                destination=90,
                steps=failure + ((30.0, restore_link(70, 90)),),
            ),
            protocol,
            seed=8,
        )
        assert run.phases[1].report.affected == set()
        assert (run.announcements, run.withdrawals) == (
            alone.announcements, alone.withdrawals,
        )
        assert run.report.affected == alone.report.affected


class TestTwinStartCacheKeying:
    """Regression: the twin-start slot must key on pre-failed links."""

    def test_key_includes_pre_failed_links(self, graph):
        key_plain = runner_mod._rbgp_start_key(graph, 90, 4, ())
        key_prefail = runner_mod._rbgp_start_key(graph, 90, 4, ((80, 90),))
        assert key_plain != key_prefail

    def test_differing_episodes_never_share_a_snapshot(self, graph):
        plain = Episode(destination=90, steps=((0.0, fail_link(90, 80)),))
        prefail = Episode(
            destination=90,
            pre_failed_links=((90, 80),),
            steps=((0.0, restore_link(90, 80)),),
        )
        runner_mod.clear_twin_start_cache()
        run_episode(graph, plain, "rbgp", seed=4)
        # The failure-free start was parked for the rbgp twin...
        assert runner_mod._RBGP_START_SLOT is not None
        parked_key = runner_mod._RBGP_START_SLOT[0]
        # ...and an episode whose start *differs* (a pre-failed link)
        # must not consume it.
        shared = run_episode(graph, prefail, "rbgp-norci", seed=4)
        assert runner_mod._RBGP_START_SLOT is not None
        assert runner_mod._RBGP_START_SLOT[0] == parked_key
        runner_mod.clear_twin_start_cache()
        fresh = run_episode(graph, prefail, "rbgp-norci", seed=4)
        assert shared.report.affected == fresh.report.affected
        assert shared.report.timeline == fresh.report.timeline
        assert (shared.announcements, shared.withdrawals) == (
            fresh.announcements, fresh.withdrawals
        )
        runner_mod.clear_twin_start_cache()

    def test_matching_episode_twins_do_share(self, graph):
        """Sanity: the cache still fires for the legitimate twin."""
        episode = Episode(destination=90, steps=((0.0, fail_link(90, 80)),))
        runner_mod.clear_twin_start_cache()
        run_episode(graph, episode, "rbgp-norci", seed=4)
        assert runner_mod._RBGP_START_SLOT is not None
        run_episode(graph, episode, "rbgp", seed=4)
        assert runner_mod._RBGP_START_SLOT is None  # consumed by the twin
        runner_mod.clear_twin_start_cache()


class TestCampaignDeterminism:
    @pytest.fixture(scope="class")
    def tiny_graph(self):
        graph, _ = generate_internet_topology(TINY)
        return graph

    def _stats(self, data):
        return {
            "affected": {
                p: [r.affected for r in rs] for p, rs in data.runs.items()
            },
            "phase_affected": {
                p: [[ph.report.affected_count for ph in r.phases] for r in rs]
                for p, rs in data.runs.items()
            },
            "updates": {
                p: [r.updates for r in rs] for p, rs in data.runs.items()
            },
            "convergence": {
                p: [repr(r.convergence_time) for r in rs]
                for p, rs in data.runs.items()
            },
            "disruption": {
                p: [repr(r.disruption_duration) for r in rs]
                for p, rs in data.runs.items()
            },
        }

    def test_workers_1_and_4_are_byte_identical(self, tiny_graph):
        config = ExperimentConfig(seed=9, topology=TINY, n_instances=2)
        seq = link_flap_comparison(
            config, graph=tiny_graph, runner=ParallelRunner(workers=1),
            period=35.0, flaps=2,
        )
        par = link_flap_comparison(
            config, graph=tiny_graph, runner=ParallelRunner(workers=4),
            period=35.0, flaps=2,
        )
        assert self._stats(seq) == self._stats(par)

    def test_campaign_shape(self, tiny_graph):
        data = link_flap_comparison(
            ExperimentConfig(seed=9, topology=TINY, n_instances=2),
            graph=tiny_graph, period=35.0, flaps=1,
        )
        assert data.n_phases() == 2
        by_phase = data.mean_affected_by_phase()
        assert set(by_phase) == set(data.runs)
        assert all(len(v) == 2 for v in by_phase.values())


class TestAPhaseCostsWhatChanged:
    """One snapshot and one state dict per episode, same unit values."""

    @pytest.fixture(scope="class")
    def tiny_graph(self):
        graph, _ = generate_internet_topology(TINY)
        return graph

    @pytest.mark.parametrize("protocol", PLANES)
    def test_a_64_phase_unit_photographs_the_network_once(
        self, tiny_graph, protocol, monkeypatch
    ):
        """Fails with 64 snapshots (and 64 state dicts) when every
        injector photographs the network and every segment replays
        onto its own copy."""
        snapshots = []
        for cls in (BGPNetwork, RBGPNetwork, STAMPNetwork):
            original = vars(cls)["forwarding_state"]

            def counting(self, _original=original):
                snapshots.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(cls, "forwarding_state", counting)
        replayed_onto = []
        replay = _IncrementalScan.replay

        def onto_spy(self, changes):
            replayed_onto.append(self.state)
            return replay(self, changes)

        # The scan engine's ``replay`` is the package's one replay of a
        # trace (the copying one is ``reference.tracing.replay``), so
        # every segment goes through the spy.
        monkeypatch.setattr(_IncrementalScan, "replay", onto_spy)
        episode = link_flap_episode(
            tiny_graph, random.Random("count"), period=2.0, flaps=32
        )
        runner_mod.clear_twin_start_cache()
        run = run_episode(tiny_graph, episode, protocol, seed=3)
        assert len(run.phases) == 64
        assert len(snapshots) == 1
        assert len(replayed_onto) == 64
        assert len({id(state) for state in replayed_onto}) == 1

    #: sha256 over every field of every unit value (sets sorted, floats
    #: by ``repr``) of the two golden campaigns, recorded with the
    #: parent of the one-snapshot change (51b46f0) — which took a
    #: snapshot per phase and diffed it against the replay.  (Its
    #: ``pickle.dumps`` bytes matched too; they are not pinned because
    #: enum pickles differ between interpreter versions.)
    UNIT_VALUE_DIGESTS = {
        "flap":
            "37b139ab510202590e2a8f86cd8491a45c259861ae81c071b21743b2d23232b4",
        "storm":
            "c0a88598329a143900de5133b88862aa0bbdbee0ae41f441fc281e5dbcb1297a",
    }

    @pytest.mark.parametrize(
        "name, instances, period, flaps",
        [("flap", 2, 35.0, 2), ("storm", 1, 2.0, 64)],
    )
    def test_unit_values_equal_the_per_phase_snapshot_runners(
        self, tiny_graph, name, instances, period, flaps
    ):
        """The inputs of ``test_episode_golden.py`` and
        ``test_storm_golden.py``, every field — the goldens themselves
        pin counts and times, not the per-phase sets and timelines."""
        data = link_flap_comparison(
            ExperimentConfig(seed=9, topology=TINY, n_instances=instances),
            graph=tiny_graph, period=period, flaps=flaps,
        )
        assert _unit_value_digest(data) == self.UNIT_VALUE_DIGESTS[name]


def _report_value(report):
    return (
        sorted(report.eligible),
        sorted(report.affected),
        sorted(report.permanently_unreachable),
        sorted(report.looped),
        sorted(report.blackholed),
        report.timeline,
        report.problem_timeline,
    )


def _unit_value_digest(data) -> str:
    digest = hashlib.sha256()
    for protocol, runs in data.runs.items():
        for run in runs:
            value = (
                protocol,
                run.protocol,
                run.episode,
                _report_value(run.report),
                [
                    (
                        phase.index,
                        phase.step_indices,
                        phase.time,
                        phase.events,
                        _report_value(phase.report),
                    )
                    for phase in run.phases
                ],
                run.convergence_time,
                run.announcements,
                run.withdrawals,
                run.initial_updates,
                run.initial_convergence_time,
            )
            digest.update(repr(value).encode("utf-8"))
    return digest.hexdigest()
