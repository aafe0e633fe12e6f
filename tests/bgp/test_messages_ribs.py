"""Unit tests for BGP messages and RIB structures."""

import pytest

from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.ribs import AdjRibIn, Route
from repro.types import EventType


class TestAnnouncement:
    def test_sender_is_first_hop(self):
        msg = Announcement(path=(3, 2, 1))
        assert msg.sender == 3

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(path=())

    def test_defaults(self):
        msg = Announcement(path=(1,))
        assert msg.et is EventType.NO_LOSS
        assert not msg.lock
        assert msg.root_cause is None

    def test_frozen(self):
        msg = Announcement(path=(1,))
        with pytest.raises(Exception):
            msg.lock = True


class TestWithdrawal:
    def test_is_loss_event(self):
        assert Withdrawal().et is EventType.LOSS


class TestRoute:
    def test_origin_route(self):
        route = Route(path=(), learned_from=None)
        assert route.is_origin
        assert route.length == 0
        assert route.learned_from is None

    def test_learned_route(self):
        route = Route(path=(5, 9), learned_from=5)
        assert not route.is_origin
        assert route.length == 2
        assert route.learned_from == 5

    def test_path_must_start_at_neighbor(self):
        with pytest.raises(ValueError):
            Route(path=(7, 9), learned_from=5)

    def test_origin_with_path_rejected(self):
        with pytest.raises(ValueError):
            Route(path=(1,), learned_from=None)


class TestAdjRibIn:
    def test_update_get_withdraw(self):
        rib = AdjRibIn()
        route = Route(path=(5, 9), learned_from=5)
        rib.update(5, route)
        assert rib.get(5) == route
        assert 5 in rib
        assert rib.withdraw(5)
        assert rib.get(5) is None
        assert not rib.withdraw(5)

    def test_the_rib_is_order_free(self):
        """No view promises an order: the routes and the neighbors are
        sets, and the best route is the least stored key whatever the
        insertion order, because the neighbor ASN closes every key."""
        routes = [
            Route(path=(7, 9), learned_from=7, key=(-2, 1, 2, 7)),
            Route(path=(3, 9), learned_from=3, key=(-2, 1, 2, 3)),
            Route(path=(5, 8, 9), learned_from=5, key=(-2, 1, 3, 5)),
        ]
        for order in (routes, routes[::-1]):
            rib = AdjRibIn()
            for route in order:
                rib.update(route.learned_from, route)
            assert set(rib.routes()) == set(routes)
            assert set(rib) == {3, 5, 7}
            assert len(rib) == 3
            assert rib.best() is routes[1]
        assert AdjRibIn().best() is None

    def test_the_key_is_not_part_of_equality(self):
        plain = Route(path=(3, 9), learned_from=3)
        keyed = Route(path=(3, 9), learned_from=3, key=(-2, 1, 2, 3))
        assert plain == keyed and hash(plain) == hash(keyed)

    def test_update_replaces(self):
        rib = AdjRibIn()
        rib.update(5, Route(path=(5, 9), learned_from=5))
        rib.update(5, Route(path=(5, 8, 9), learned_from=5))
        assert rib.get(5).length == 3
