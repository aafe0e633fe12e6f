"""Unit tests for STAMP node coordination (selective announcement)."""

import pytest

from fakes import FixedDelay
from repro.bgp.speaker import ProtocolStats
from repro.sim.engine import Engine
from repro.sim.timers import MRAIConfig
from repro.sim.tracing import ForwardingTrace
from repro.sim.transport import Transport
from repro.stamp.node import STAMPNode, build_speaker_configs
from repro.topology.graph import ASGraph
from repro.types import Color


def build_node(graph, asn, *, seed=0, inbox=None):
    engine = Engine(seed=seed)
    transport = Transport(engine, FixedDelay(0.01))
    # Register sinks for all the node's neighbors so exports can flow;
    # ``inbox`` collects (arrival time, neighbor, color, message).
    for nbr in graph.neighbors(asn):
        for color in (Color.RED, Color.BLUE):

            def sink(sender, message, nbr=nbr, color=color):
                if inbox is not None:
                    inbox.append((engine.now, nbr, color, message))

            transport.register_receiver(nbr, sink, tag=color)
    node = STAMPNode(
        asn,
        graph,
        engine,
        transport,
        speaker_configs=build_speaker_configs(MRAIConfig(base=1.0)),
        trace=ForwardingTrace(),
        stats=ProtocolStats(),
    )
    return engine, node


@pytest.fixture
def multihomed_graph():
    """AS 1 with providers 2 and 3 (who have provider 4)."""
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(1, 3)
    graph.add_c2p(2, 4)
    graph.add_c2p(3, 4)
    return graph


@pytest.fixture
def triplehomed_graph():
    """AS 1 with providers 2, 3 and 5 (who have provider 4)."""
    graph = ASGraph()
    for provider in (2, 3, 5):
        graph.add_c2p(1, provider)
        graph.add_c2p(provider, 4)
    return graph


@pytest.fixture
def singlehomed_graph():
    graph = ASGraph()
    graph.add_c2p(1, 2)
    graph.add_c2p(2, 3)
    return graph


class TestOriginColoring:
    def test_origin_splits_colors_between_providers(self, multihomed_graph):
        engine, node = build_node(multihomed_graph, 1)
        node.originate()
        engine.run()
        target = node.locked_blue_provider
        assert target in (2, 3)
        other = 3 if target == 2 else 2
        blue_export = node.blue.export_for(target)
        assert blue_export is not None and blue_export[1] is True  # locked
        assert node.blue.export_for(other) is None
        red_export = node.red.export_for(other)
        assert red_export is not None and red_export[1] is False
        assert node.red.export_for(target) is None

    def test_the_locked_provider_is_a_draw_of_the_engine(self, multihomed_graph):
        """Among the live providers, by the engine's seeded generator:
        one seed picks one provider, and the seeds pick both."""

        def locked(seed):
            engine, node = build_node(multihomed_graph, 1, seed=seed)
            node.originate()
            engine.run()
            return node.locked_blue_provider

        picks = [locked(seed) for seed in range(12)]
        assert set(picks) == {2, 3}
        assert picks == [locked(seed) for seed in range(12)]

    def test_single_homed_origin_sends_both_colors(self, singlehomed_graph):
        engine, node = build_node(singlehomed_graph, 1)
        node.originate()
        engine.run()
        blue_export = node.blue.export_for(2)
        red_export = node.red.export_for(2)
        assert blue_export is not None and blue_export[1] is True
        assert red_export is not None and red_export[1] is False

    def test_locked_target_stable_across_updates(self, multihomed_graph):
        engine, node = build_node(multihomed_graph, 1)
        node.originate()
        engine.run()
        first = node.locked_blue_provider
        node._refresh_providers  # no-op access; now trigger refresh
        node._refresh_providers(__import__("repro.types", fromlist=["EventType"]).EventType.NO_LOSS)
        assert node.locked_blue_provider == first

    def test_lock_moves_to_survivor_after_failure(self, multihomed_graph):
        engine, node = build_node(multihomed_graph, 1)
        node.originate()
        engine.run()
        target = node.locked_blue_provider
        survivor = 3 if target == 2 else 2
        node.on_session_down(target)
        engine.run()
        # Now effectively single-homed: the survivor gets both colors,
        # blue still carrying the Lock.
        blue_export = node.blue.export_for(survivor)
        assert blue_export is not None and blue_export[1] is True
        red_export = node.red.export_for(survivor)
        assert red_export is not None


    def test_a_provider_that_is_down_is_never_drawn(self, triplehomed_graph):
        """The draw is over the live providers only: with provider 2's
        link down, every seed locks 3 or 5, and the seeds pick both."""

        def locked(seed):
            engine, node = build_node(triplehomed_graph, 1, seed=seed)
            node.on_session_down(2)
            node.originate()
            engine.run()
            return node.locked_blue_provider

        assert {locked(seed) for seed in range(12)} == {3, 5}

    def test_a_recovered_provider_does_not_take_the_lock_back(
        self, triplehomed_graph
    ):
        engine, node = build_node(triplehomed_graph, 1)
        node.originate()
        engine.run()
        target = node.locked_blue_provider
        node.on_session_down(target)
        engine.run()
        moved = node.locked_blue_provider
        assert moved in {2, 3, 5} - {target}
        node.on_session_up(target)
        engine.run()
        assert node.locked_blue_provider == moved
        blue_export = node.blue.export_for(moved)
        assert blue_export is not None and blue_export[1] is True
        assert node.blue.export_for(target) is None

    def test_no_live_provider_draws_nothing(self, multihomed_graph):
        engine, node = build_node(multihomed_graph, 1)
        assert node._locked_target([]) is None
        assert node.locked_blue_provider is None
        assert engine.rng.random() == Engine(seed=0).rng.random()

class TestInstabilityFlags:
    def test_flags_start_clear(self, multihomed_graph):
        _, node = build_node(multihomed_graph, 1)
        assert not node.unstable[Color.RED]
        assert not node.unstable[Color.BLUE]

    def test_loss_sets_flag_and_clear_resets(self, multihomed_graph):
        from repro.bgp.messages import Announcement, Withdrawal

        engine, node = build_node(multihomed_graph, 1)
        node.red.on_message(2, Announcement(path=(2, 9)))
        engine.run()
        node.red.on_message(2, Withdrawal())
        engine.run()
        assert node.unstable[Color.RED]
        assert not node.unstable[Color.BLUE]
        node.clear_instability()
        assert not node.unstable[Color.RED]


class TestForwardingState:
    def test_state_contains_both_colors_and_flags(self, multihomed_graph):
        _, node = build_node(multihomed_graph, 1)
        state = node.forwarding_state()
        assert (1, Color.RED) in state
        assert (1, Color.BLUE) in state
        assert (1, ("unstable", Color.RED)) in state


class TestRecolor:
    """Make-before-break: a provider session that flips color hears the
    gaining color first, the losing color ``RECOLOR_DELAY`` later."""

    def test_gain_is_announced_before_the_deferred_loss(self):
        from repro.bgp.messages import Announcement, Withdrawal

        # Three providers: losing the locked one moves the Lock chain to
        # a survivor, whose session flips red -> blue.
        graph = ASGraph()
        for provider in (2, 3, 4):
            graph.add_c2p(1, provider)
        inbox = []
        engine, node = build_node(graph, 1, inbox=inbox)
        node.originate()
        engine.run()
        del inbox[:]
        failed_at = engine.now
        node.on_session_down(node.locked_blue_provider)
        flipped = node.locked_blue_provider
        # Both colors are advertised until the deferred withdrawal.
        assert node.blue.is_advertising(flipped)
        assert node.red.is_advertising(flipped)
        engine.run()
        assert not node.red.is_advertising(flipped)
        to_flipped = [
            (time, color, message)
            for time, nbr, color, message in inbox
            if nbr == flipped
        ]
        (gain_at, gain_color, gain), (loss_at, loss_color, loss) = to_flipped
        assert (gain_color, loss_color) == (Color.BLUE, Color.RED)
        assert isinstance(gain, Announcement) and gain.lock
        assert isinstance(loss, Withdrawal)
        assert gain_at == pytest.approx(failed_at + 0.01)
        assert loss_at - gain_at == pytest.approx(STAMPNode.RECOLOR_DELAY)
