"""Unit tests for the STAMP data plane (color switching)."""

from reference.walk import classify
from repro.forwarding.stamp_plane import STAMPDataPlane, unstable_key
from repro.types import Color, Outcome

RED, BLUE = Color.RED, Color.BLUE


def state_of(red=None, blue=None, unstable=None):
    """Build a STAMP snapshot from {asn: path} per color."""
    state = {}
    for asn, path in (red or {}).items():
        state[(asn, RED)] = path
    for asn, path in (blue or {}).items():
        state[(asn, BLUE)] = path
    for (asn, color), flag in (unstable or {}).items():
        state[(asn, unstable_key(color))] = flag
    return state


class TestInitialColor:
    def test_source_prefers_blue(self):
        plane = STAMPDataPlane(9)
        state = state_of(red={1: (9,)}, blue={1: (9,), 9: ()})
        assert classify(plane, state, [1])[1] is Outcome.DELIVERED

    def test_source_without_any_route_blackholes(self):
        plane = STAMPDataPlane(9)
        state = state_of(red={1: None}, blue={1: None})
        assert classify(plane, state, [1])[1] is Outcome.BLACKHOLE

    def test_destination_always_delivered(self):
        plane = STAMPDataPlane(9)
        assert classify(plane, {}, [9])[9] is Outcome.DELIVERED


class TestColorSwitching:
    def test_switch_when_same_color_missing(self):
        plane = STAMPDataPlane(9)
        # 1's blue goes via 2; 2 has no blue but has red.
        state = state_of(
            red={2: (9,)},
            blue={1: (2, 9), 2: None, 9: ()},
        )
        assert classify(plane, state, [1])[1] is Outcome.DELIVERED

    def test_switch_when_same_color_unstable(self):
        plane = STAMPDataPlane(9)
        state = state_of(
            red={2: (9,)},
            blue={1: (2, 9), 2: (8, 9), 9: ()},  # blue at 2 points into space
            unstable={(2, BLUE): True},
        )
        # 2's blue process is flagged unstable: the packet switches to
        # red at 2 and is delivered.
        assert classify(plane, state, [1])[1] is Outcome.DELIVERED

    def test_switch_happens_at_most_once(self):
        plane = STAMPDataPlane(9)
        # Blue at 1 -> 2; 2 has only red -> 3; 3 has only blue again.
        state = state_of(
            red={2: (3, 9), 3: None},
            blue={1: (2, 9), 2: None, 3: None},
        )
        # After switching at 2 (blue->red), the packet reaches 3 where
        # red is also missing; no second switch: blackhole.
        assert classify(plane, state, [1])[1] is Outcome.BLACKHOLE

    def test_unstable_route_used_when_no_alternative(self):
        plane = STAMPDataPlane(9)
        state = state_of(
            red={1: None},
            blue={1: (9,), 9: ()},
            unstable={(1, BLUE): True},
        )
        # Only an unstable blue route exists; ride it rather than drop.
        assert classify(plane, state, [1])[1] is Outcome.DELIVERED

    def test_failed_link_forces_switch(self):
        plane = STAMPDataPlane(9)
        state = state_of(
            red={1: (3, 9), 3: (9,)},
            blue={1: (9,), 9: (), 3: None},
        )
        outcomes = classify(plane, state, [1], failed_links=frozenset({(1, 9)}))
        # Blue next hop is the dead link; switch to red via 3.
        assert outcomes[1] is Outcome.DELIVERED

    def test_switch_once_prevents_cross_color_loop(self):
        plane = STAMPDataPlane(9)
        # Red at 1 -> 2 (red missing at 2); blue at 2 -> 1 (blue missing
        # at 1).  Unlimited switching would cycle 1->2->1->...; the
        # switch-once rule from [12] drops the packet instead.
        state = state_of(
            red={1: (2, 9), 2: None},
            blue={1: None, 2: (1, 9)},
        )
        assert classify(plane, state, [1])[1] is Outcome.BLACKHOLE

    def test_same_color_loop_detected(self):
        plane = STAMPDataPlane(9)
        # Transient blue loop 1 <-> 2 with no red anywhere.
        state = state_of(
            red={1: None, 2: None},
            blue={1: (2, 9), 2: (1, 9)},
        )
        assert classify(plane, state, [1])[1] is Outcome.LOOP


class TestFailedResources:
    def test_failed_as_excluded_from_sources(self):
        plane = STAMPDataPlane(9)
        outcomes = classify(plane, {}, [1], failed_ases=frozenset({1}))
        assert 1 not in outcomes

    def test_next_hop_as_down_forces_switch(self):
        plane = STAMPDataPlane(9)
        state = state_of(
            red={1: (3, 9), 3: (9,)},
            blue={1: (2, 9)},
        )
        outcomes = classify(plane, state, [1], failed_ases=frozenset({2}))
        assert outcomes[1] is Outcome.DELIVERED
