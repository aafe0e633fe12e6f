"""Unit tests for the plain-BGP data plane."""

from reference.walk import classify
from repro.forwarding.bgp_plane import BGPDataPlane
from repro.types import Outcome


def state_of(paths):
    """Build a trace-key-space state from {asn: path}."""
    return {(asn, None): path for asn, path in paths.items()}


class TestWalks:
    def test_delivery_chain(self):
        plane = BGPDataPlane(destination=9)
        state = state_of({1: (2, 9), 2: (9,), 9: ()})
        outcomes = classify(plane, state, [1, 2, 9])
        assert outcomes[1] is Outcome.DELIVERED
        assert outcomes[9] is Outcome.DELIVERED

    def test_no_route_blackholes(self):
        plane = BGPDataPlane(destination=9)
        outcomes = classify(plane, state_of({1: None}), [1])
        assert outcomes[1] is Outcome.BLACKHOLE

    def test_transient_loop_detected(self):
        plane = BGPDataPlane(destination=9)
        state = state_of({1: (2, 9), 2: (1, 9)})
        outcomes = classify(plane, state, [1, 2])
        assert outcomes[1] is Outcome.LOOP
        assert outcomes[2] is Outcome.LOOP

    def test_failed_link_drops_packet(self):
        plane = BGPDataPlane(destination=9)
        state = state_of({1: (9,), 9: ()})
        outcomes = classify(plane, state, [1], failed_links=frozenset({(1, 9)}))
        assert outcomes[1] is Outcome.BLACKHOLE

    def test_failed_next_as_drops_packet(self):
        plane = BGPDataPlane(destination=9)
        state = state_of({1: (2, 9), 2: (9,)})
        outcomes = classify(plane, state, [1], failed_ases=frozenset({2}))
        assert outcomes[1] is Outcome.BLACKHOLE

    def test_failed_source_excluded(self):
        plane = BGPDataPlane(destination=9)
        outcomes = classify(plane, state_of({1: (9,)}), [1], failed_ases=frozenset({1}))
        assert 1 not in outcomes
