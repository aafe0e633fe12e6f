"""Unit tests for the shared primitive types."""

from repro.types import (
    RELATIONSHIP_PREFERENCE,
    Color,
    EventType,
    Outcome,
    Relationship,
    normalize_link,
)


class TestRelationship:
    def test_inverse_of_customer_is_provider(self):
        assert Relationship.CUSTOMER.inverse is Relationship.PROVIDER

    def test_inverse_of_provider_is_customer(self):
        assert Relationship.PROVIDER.inverse is Relationship.CUSTOMER

    def test_inverse_of_peer_is_peer(self):
        assert Relationship.PEER.inverse is Relationship.PEER

    def test_inverse_is_involution(self):
        for rel in Relationship:
            assert rel.inverse.inverse is rel

    def test_prefer_customer_ordering(self):
        assert (
            RELATIONSHIP_PREFERENCE[Relationship.CUSTOMER]
            > RELATIONSHIP_PREFERENCE[Relationship.PEER]
            > RELATIONSHIP_PREFERENCE[Relationship.PROVIDER]
        )


class TestColor:
    def test_other_swaps(self):
        assert Color.RED.other is Color.BLUE
        assert Color.BLUE.other is Color.RED

    def test_other_is_involution(self):
        for color in Color:
            assert color.other.other is color


class TestEventType:
    def test_loss_is_zero(self):
        # The paper defines ET=0 as "caused by losing a route".
        assert int(EventType.LOSS) == 0
        assert int(EventType.NO_LOSS) == 1


class TestOutcome:
    def test_a_walk_has_three_fates(self):
        assert [outcome.value for outcome in Outcome] == [
            "delivered", "loop", "blackhole",
        ]


class TestNormalizeLink:
    def test_orders_endpoints(self):
        assert normalize_link(5, 2) == (2, 5)
        assert normalize_link(2, 5) == (2, 5)

    def test_idempotent(self):
        assert normalize_link(*normalize_link(9, 1)) == (1, 9)
