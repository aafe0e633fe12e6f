"""Unit tests for the FIFO transport with link failures."""

import pytest

from fakes import FixedDelay
from repro.errors import SimulationError
from repro.experiments.runner import build_network
from repro.sim.delays import UniformDelay
from repro.sim.engine import Engine
from repro.sim.transport import Transport
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)
from repro.types import Color

COLORS = (Color.RED, Color.BLUE)


@pytest.fixture
def setup():
    engine = Engine(seed=0)
    transport = Transport(engine, UniformDelay())
    return engine, transport


class TestDelivery:
    def test_message_arrives(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda src, msg: inbox.append((src, msg)))
        transport.send(1, 2, "hello")
        engine.run()
        assert inbox == [(1, "hello")]

    def test_fifo_order_preserved(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda src, msg: inbox.append(msg))
        for i in range(50):
            transport.send(1, 2, i)
        engine.run()
        assert inbox == list(range(50))

    def test_independent_channels_per_direction(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(1, lambda src, msg: inbox.append((1, msg)))
        transport.register_receiver(2, lambda src, msg: inbox.append((2, msg)))
        transport.send(1, 2, "a")
        transport.send(2, 1, "b")
        engine.run()
        assert len(inbox) == 2

    def test_tagged_sessions_are_separate(self, setup):
        engine, transport = setup
        red, blue = [], []
        transport.register_receiver(2, lambda src, msg: red.append(msg), tag="red")
        transport.register_receiver(2, lambda src, msg: blue.append(msg), tag="blue")
        transport.send(1, 2, "r", tag="red")
        transport.send(1, 2, "b", tag="blue")
        engine.run()
        assert red == ["r"]
        assert blue == ["b"]

    def test_missing_receiver_raises(self, setup):
        engine, transport = setup
        transport.send(1, 2, "x")
        with pytest.raises(SimulationError):
            engine.run()

    def test_duplicate_receiver_rejected(self, setup):
        _, transport = setup
        transport.register_receiver(2, lambda s, m: None)
        with pytest.raises(SimulationError):
            transport.register_receiver(2, lambda s, m: None)

    def test_counters(self, setup):
        engine, transport = setup
        transport.register_receiver(2, lambda s, m: None)
        transport.send(1, 2, "x")
        engine.run()
        assert transport.messages_sent == 1
        assert transport.messages_delivered == 1
        assert transport.messages_lost == 0


class TestFailures:
    def test_send_on_failed_link_is_lost(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda s, m: inbox.append(m))
        transport.fail_link(1, 2)
        transport.send(1, 2, "x")
        engine.run()
        assert inbox == []
        assert transport.messages_lost == 1

    def test_in_flight_message_lost_on_failure(self):
        engine = Engine(seed=0)
        transport = Transport(engine, FixedDelay(1.0))
        inbox = []
        transport.register_receiver(2, lambda s, m: inbox.append(m))
        transport.send(1, 2, "x")
        engine.schedule(0.5, lambda: transport.fail_link(1, 2))
        engine.run()
        assert inbox == []

    def test_both_endpoints_notified(self, setup):
        _, transport = setup
        down = []
        transport.register_session_down_listener(1, lambda peer: down.append((1, peer)))
        transport.register_session_down_listener(2, lambda peer: down.append((2, peer)))
        transport.fail_link(1, 2)
        assert set(down) == {(1, 2), (2, 1)}

    def test_double_failure_notifies_once(self, setup):
        _, transport = setup
        down = []
        transport.register_session_down_listener(1, lambda peer: down.append(peer))
        transport.fail_link(1, 2)
        transport.fail_link(2, 1)
        assert down == [2]

    def test_restore_link(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda s, m: inbox.append(m))
        transport.fail_link(1, 2)
        transport.restore_link(1, 2)
        transport.send(1, 2, "x")
        engine.run()
        assert inbox == ["x"]

    def test_fail_as_notifies_neighbors(self, setup):
        _, transport = setup
        down = []
        transport.register_session_down_listener(2, lambda peer: down.append(peer))
        transport.register_session_down_listener(3, lambda peer: down.append(peer))
        transport.fail_as(1, neighbors=[2, 3])
        assert down == [1, 1]
        assert transport.failed_ases == {1}

    def test_failed_as_blocks_links(self, setup):
        _, transport = setup
        transport.fail_as(1, neighbors=[])
        assert not transport.link_is_up(1, 2)


class TestInFlightLossIsDecidedAtTheFailure:
    """Regression: a failure kills what is in flight even if the failed
    element recovers before the scheduled delivery time."""

    def test_link_flap_within_one_delay_loses_the_message(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda src, msg: inbox.append(msg))
        transport.send(1, 2, "doomed")
        transport.fail_link(1, 2)
        transport.restore_link(1, 2)  # back up before delivery fires
        engine.run()
        assert inbox == []
        assert transport.messages_lost == 1

    def test_an_as_failure_loses_both_directions(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(1, lambda src, msg: inbox.append((1, msg)))
        transport.register_receiver(2, lambda src, msg: inbox.append((2, msg)))
        transport.send(1, 2, "to the dying AS")
        transport.send(2, 1, "from the dying AS")
        transport.fail_as(2, neighbors=[1])
        engine.run()
        assert inbox == []
        assert transport.messages_lost == 2

    def test_messages_sent_after_recovery_still_deliver(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(2, lambda src, msg: inbox.append(msg))
        transport.send(1, 2, "doomed")
        transport.fail_link(1, 2)
        transport.restore_link(1, 2)
        transport.send(1, 2, "fresh")
        engine.run()
        assert inbox == ["fresh"]
        assert transport.messages_lost == 1

    def test_unrelated_channels_are_untouched(self, setup):
        engine, transport = setup
        inbox = []
        transport.register_receiver(3, lambda src, msg: inbox.append(msg))
        transport.send(1, 3, "bystander")
        transport.fail_link(1, 2)
        engine.run()
        assert inbox == ["bystander"]
        assert transport.messages_lost == 0


class TestAFailureCondemnsItsOwnChannels:
    """On a STAMP network (two tagged sessions per link), a failure
    condemns what is in flight on both colors' channels in both
    directions of exactly the sessions it takes down — found by key,
    not by scanning every channel."""

    @pytest.fixture
    def network(self):
        graph, _ = generate_internet_topology(
            InternetTopologyConfig(
                seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
            )
        )
        destination = next(a for a in graph.ases if graph.is_multihomed(a))
        network, _ = build_network("stamp", graph, destination, seed=0)
        network.start()
        # One message in flight on every channel of every link.
        for a, b, _ in graph.links():
            for src, dst in ((a, b), (b, a)):
                for color in COLORS:
                    network.transport.send(src, dst, "in flight", tag=color)
        return network

    @staticmethod
    def _condemned(network):
        return {
            key: channel.pending_losses
            for key, channel in network.transport._channels.items()
            if channel.pending_losses
        }

    def test_fail_link(self, network):
        a = network.destination
        b = network.graph.providers(a)[0]
        network.fail_link(a, b)
        assert self._condemned(network) == {
            (src, dst, color): 1
            for src, dst in ((a, b), (b, a))
            for color in COLORS
        }

    def test_fail_as(self, network):
        asn = network.graph.providers(network.destination)[0]
        neighbors = network.graph.neighbors(asn)
        assert len(neighbors) > 1
        network.fail_as(asn)
        assert self._condemned(network) == {
            (src, dst, color): 1
            for peer in neighbors
            for src, dst in ((asn, peer), (peer, asn))
            for color in COLORS
        }
