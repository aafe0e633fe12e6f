"""Behavioral tests for a single BGP speaker in tiny networks."""

import pytest

from fakes import FixedDelay
from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.network import BGPNetwork
from repro.bgp.speaker import BGPSpeaker, ProtocolStats, SpeakerConfig
from repro.sim.delays import DelayModel
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.topology.graph import ASGraph
from repro.types import EventType


def make_line_graph():
    """1 -- 2 -- 3 as a customer chain (1 at the bottom)."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(2, 3)
    return graph


@pytest.fixture
def harness():
    """Speaker for AS 2 with scripted neighbors 1 and 3."""
    graph = make_line_graph()
    engine = Engine(seed=0)
    transport = Transport(engine, FixedDelay(0.01))
    inboxes = {1: [], 3: []}
    transport.register_receiver(1, lambda s, m: inboxes[1].append(m))
    transport.register_receiver(3, lambda s, m: inboxes[3].append(m))
    speaker = BGPSpeaker(
        2,
        graph,
        engine,
        transport,
        config=SpeakerConfig(mrai=MRAIConfig(base=5.0, jitter_low=1.0, jitter_high=1.0)),
        trace=ForwardingTrace(),
        stats=ProtocolStats(),
    )
    return engine, speaker, inboxes


class TestOrigination:
    def test_origin_advertises_to_all_neighbors(self, harness):
        engine, speaker, inboxes = harness
        speaker.originate()
        engine.run()
        assert [m.path for m in inboxes[1]] == [(2,)]
        assert [m.path for m in inboxes[3]] == [(2,)]

    def test_origin_route_is_best(self, harness):
        _, speaker, _ = harness
        speaker.originate()
        assert speaker.best.is_origin


class TestAnnouncementHandling:
    def test_learned_route_propagates_with_prepending(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        # Customer route: exported to provider 3 but not back to 1.
        assert [m.path for m in inboxes[3]] == [(2, 1, 9)]
        assert inboxes[1] == []

    def test_provider_route_not_exported_to_provider(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(3, Announcement(path=(3, 9)))
        engine.run()
        # Learned from provider: exported only to customer 1.
        assert [m.path for m in inboxes[1]] == [(2, 3, 9)]
        assert inboxes[3] == []

    def test_looped_path_is_implicit_withdrawal(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        speaker.on_message(1, Announcement(path=(1, 2, 9)))
        engine.run()
        assert speaker.best is None
        assert isinstance(inboxes[3][-1], Withdrawal)

    def test_stale_message_from_closed_session_ignored(self, harness):
        engine, speaker, _ = harness
        speaker.on_session_down(1)
        speaker.on_message(1, Announcement(path=(1, 9)))
        assert speaker.best is None


class TestWithdrawalHandling:
    def test_withdrawal_clears_route(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        speaker.on_message(1, Withdrawal())
        engine.run()
        assert speaker.best is None
        assert isinstance(inboxes[3][-1], Withdrawal)

    def test_withdrawal_is_not_mrai_paced(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        t_before = engine.now
        speaker.on_message(1, Withdrawal())
        engine.run()
        # Withdrawal forwarded without waiting for the 5s MRAI.
        assert engine.now - t_before < 1.0

    def test_withdrawal_never_asks_the_pacer(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        assert speaker._pacer._next_allowed[3] == 5.0
        speaker.on_message(1, Withdrawal())
        # Sent at once, inside the announcement's MRAI window, with the
        # interval neither restarted nor a flush timer armed.
        assert speaker._pacer._next_allowed[3] == 5.0
        assert not speaker._pacer._armed
        engine.run()
        assert engine.now < 1.0
        assert [type(m) for m in inboxes[3]] == [Announcement, Withdrawal]


class TestSessionEvents:
    def test_session_down_withdraws_learned_route(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        speaker.on_session_down(1)
        engine.run()
        assert speaker.best is None
        assert isinstance(inboxes[3][-1], Withdrawal)

    def test_session_up_re_advertises(self, harness):
        engine, speaker, inboxes = harness
        speaker.originate()
        engine.run()
        speaker.on_session_down(3)
        engine.run()
        inboxes[3].clear()
        speaker.on_session_up(3)
        engine.run()
        assert [m.path for m in inboxes[3]] == [(2,)]


class TestETPropagation:
    def test_loss_triggered_update_carries_et0(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        speaker.on_message(3, Announcement(path=(3, 8, 9)))
        engine.run()
        # Losing the customer route switches to the provider route;
        # the triggered export to customer 1 must carry ET=0.
        speaker.on_message(1, Withdrawal())
        engine.run()
        last = inboxes[1][-1]
        assert isinstance(last, Announcement)
        assert last.path == (2, 3, 8, 9)
        assert last.et is EventType.LOSS

    def test_gain_triggered_update_carries_et1(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9), et=EventType.NO_LOSS))
        engine.run()
        assert inboxes[3][-1].et is EventType.NO_LOSS


class TestMRAICoalescing:
    def test_rapid_changes_collapse_to_latest(self, harness):
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        # Three quick improvements within one MRAI window.
        speaker.on_message(1, Announcement(path=(1, 8, 9)))
        speaker.on_message(1, Announcement(path=(1, 7, 9)))
        speaker.on_message(1, Announcement(path=(1, 6, 9)))
        engine.run()
        paths = [m.path for m in inboxes[3] if isinstance(m, Announcement)]
        # First announcement immediate, then exactly one coalesced one.
        assert paths[0] == (2, 1, 9)
        assert paths[-1] == (2, 1, 6, 9)
        assert len(paths) == 2


class TestMRAIBatchedFlush:
    """Batched flush semantics: churn inside one MRAI window collapses."""

    def test_withdraw_then_announce_collapse_to_final_state(self, harness):
        """A withdraw+announce pair within the window nets to one update."""
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        first = [m for m in inboxes[3]]
        assert [m.path for m in first] == [(2, 1, 9)]
        # Within the MRAI window: lose the route, then regain the same
        # one.  Net Adj-RIB-Out change toward 3 is zero.
        speaker.on_message(1, Withdrawal())
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        # The armed flush found state == advertised: nothing was sent
        # beyond the immediate (unpaced) withdrawal.
        announcements_to_3 = [
            m for m in inboxes[3] if isinstance(m, Announcement)
        ]
        withdrawals_to_3 = [m for m in inboxes[3] if isinstance(m, Withdrawal)]
        assert [m.path for m in announcements_to_3] == [(2, 1, 9), (2, 1, 9)]
        assert len(withdrawals_to_3) == 1  # withdrawals bypass MRAI

    def test_churn_collapses_to_latest_path(self, harness):
        """Multiple path changes inside the window emit only the last."""
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        # Three successive improvements within one MRAI window.
        speaker.on_message(1, Announcement(path=(1, 8, 9)))
        speaker.on_message(1, Announcement(path=(1, 7, 9)))
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        paths_to_3 = [
            m.path for m in inboxes[3] if isinstance(m, Announcement)
        ]
        # First immediate send, then at most one coalesced flush; the
        # final state equals what was already advertised, so the flush
        # sent nothing.
        assert paths_to_3 == [(2, 1, 9)]

    def test_pending_context_merges_loss_event(self, harness):
        """ET=LOSS survives coalescing when any pending change was a loss."""
        engine, speaker, inboxes = harness
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        speaker.on_message(1, Announcement(path=(1, 8, 9), et=EventType.LOSS))
        engine.run()
        last = [m for m in inboxes[3] if isinstance(m, Announcement)][-1]
        assert last.path == (2, 1, 8, 9)
        assert last.et is EventType.LOSS


class TestDispose:
    def test_disposed_network_frees_without_cyclic_gc(self):
        import gc
        import weakref

        graph = make_line_graph()
        network = BGPNetwork(graph, 3, seed=1)
        network.start()
        ref = weakref.ref(network.speakers[1])
        network.dispose()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del network
            # No cyclic collection ran: refcounting alone must free it.
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestExportEquivalence:
    """The inlined valley-free check must agree with
    ``reference.policy.export_allowed``."""

    def test_export_for_matches_policy_for_every_combination(self):
        from reference.policy import export_allowed
        from repro.bgp.ribs import Route

        # AS 5 with one customer (1), one peer (2), one provider (3).
        graph = ASGraph()
        graph.add_c2p(1, 5)
        graph.add_p2p(5, 2)
        graph.add_c2p(5, 3)
        engine = Engine(seed=0)
        transport = Transport(engine, FixedDelay(0.01))
        for asn in (1, 2, 3):
            transport.register_receiver(asn, lambda s, m: None)
        speaker = BGPSpeaker(
            5, graph, engine, transport,
            trace=ForwardingTrace(), stats=ProtocolStats(),
        )
        routes = [
            Route(path=(), learned_from=None),       # originated
            Route(path=(1, 9), learned_from=1),
            Route(path=(2, 9), learned_from=2),
            Route(path=(3, 9), learned_from=3),
        ]
        for route in routes:
            speaker.best = route
            speaker._export_path = None
            for peer in (1, 2, 3):
                inline = speaker.export_for(peer) is not None
                reference = export_allowed(graph, 5, route, peer)
                assert inline == reference, (route.learned_from, peer)


def make_mixed_graph():
    """AS 5 with customers 1, 4, 8, peer 2 and providers 3, 6: the
    relationship classes interleave in ascending-ASN order."""
    graph = ASGraph()
    for customer in (1, 4, 8):
        graph.add_c2p(customer, 5)
    graph.add_p2p(5, 2)
    for provider in (3, 6):
        graph.add_c2p(5, provider)
    return graph


class LoggedDelay(DelayModel):
    """Fixed delay (arrival order = send order) that logs every draw."""

    def __init__(self):
        self.rngs = []

    def sample(self, rng):
        self.rngs.append(rng)
        return 0.01


def mixed_harness(**speaker_options):
    """Speaker for AS 5 of the mixed graph, MRAI off, one arrival log."""
    engine = Engine(seed=0)
    delay = LoggedDelay()
    transport = Transport(engine, delay)
    arrivals = []
    for neighbor in (1, 2, 3, 4, 6, 8):
        transport.register_receiver(
            neighbor, lambda s, m, n=neighbor: arrivals.append((n, m))
        )
    speaker = BGPSpeaker(
        5,
        make_mixed_graph(),
        engine,
        transport,
        config=SpeakerConfig(mrai=MRAIConfig(base=0.0)),
        trace=ForwardingTrace(),
        stats=ProtocolStats(),
        **speaker_options,
    )
    return engine, speaker, arrivals, delay


class TestFanOutOrder:
    """The fan-out contract the goldens pin, stated directly: updates
    leave in ascending peer-ASN order, one delay draw per message."""

    def step(self, harness, sender, message):
        engine, speaker, arrivals, delay = harness
        del arrivals[:], delay.rngs[:]
        speaker.on_message(sender, message)
        engine.run()
        assert len(delay.rngs) == len(arrivals)
        assert all(rng is engine.rng for rng in delay.rngs)
        return [(peer, type(m).__name__) for peer, m in arrivals]

    def test_sends_in_ascending_peer_order_one_draw_each(self):
        harness = mixed_harness()
        a, w = "Announcement", "Withdrawal"
        # Customer route: everyone but its announcer.
        assert self.step(harness, 1, Announcement(path=(1, 9))) == [
            (2, a), (3, a), (4, a), (6, a), (8, a)
        ]
        assert self.step(harness, 1, Withdrawal()) == [
            (2, w), (3, w), (4, w), (6, w), (8, w)
        ]
        # Provider route: customers only.
        assert self.step(harness, 3, Announcement(path=(3, 9))) == [
            (1, a), (4, a), (8, a)
        ]
        # A customer route displaces it: announcements and the
        # withdrawal toward the new next hop share the one sorted pass.
        assert self.step(harness, 4, Announcement(path=(4, 9))) == [
            (1, a), (2, a), (3, a), (4, w), (6, a), (8, a)
        ]


class TestGatedFanOut:
    """A gated speaker's fan-out leaves its gate peers to the
    ``on_best_change`` listener, except those handed back to it."""

    def gated(self, listener=None):
        gate_calls = []

        def gate(peer, route):
            gate_calls.append(peer)
            return (True, False)

        harness = mixed_harness(
            export_gate=gate, gate_peers={3, 6}, on_best_change=listener
        )
        speaker = harness[1]
        refreshed = []
        export_for = speaker.export_for

        def spy(peer):
            refreshed.append(peer)
            return export_for(peer)

        # The fan-out evaluates each peer it refreshes exactly once.
        speaker.export_for = spy
        return harness, refreshed, gate_calls

    def test_fan_out_passes_over_gate_peers(self):
        (engine, speaker, arrivals, _), refreshed, gate_calls = self.gated()
        speaker.on_message(1, Announcement(path=(1, 9)))
        engine.run()
        assert refreshed == [1, 2, 4, 8]
        assert gate_calls == []
        assert [peer for peer, _ in arrivals] == [2, 4, 8]

    def test_queued_gate_peer_is_refreshed_once_in_sorted_position(self):
        queue = [6, 6]

        def listener(spk, old, new, et, root_cause):
            while queue:
                spk.gate_refresh_queue(queue.pop())

        (engine, speaker, arrivals, _), refreshed, gate_calls = self.gated(
            listener
        )
        speaker.on_message(1, Announcement(path=(1, 9), et=EventType.LOSS))
        engine.run()
        assert refreshed == [1, 2, 4, 6, 8]
        assert gate_calls == [6]
        assert [peer for peer, _ in arrivals] == [2, 4, 6, 8]
        # The handed-back peer got this decision's event context.
        assert dict(arrivals)[6].et is EventType.LOSS
        assert speaker._gate_refresh_pending is None
        # The hand-back was for that one decision only.
        del refreshed[:]
        speaker.on_message(1, Announcement(path=(1, 7, 9)))
        engine.run()
        assert refreshed == [1, 2, 4, 8]

    def test_gate_and_gate_peers_come_together(self):
        graph = make_mixed_graph()
        engine = Engine(seed=0)
        transport = Transport(engine, FixedDelay(0.01))
        with pytest.raises(ValueError):
            BGPSpeaker(
                5, graph, engine, transport,
                trace=ForwardingTrace(), stats=ProtocolStats(),
                export_gate=lambda peer, route: (True, False),
            )
        with pytest.raises(ValueError):
            BGPSpeaker(
                5, graph, engine, transport,
                trace=ForwardingTrace(), stats=ProtocolStats(),
                gate_peers={3, 6},
            )
