"""Unit tests for the R-BGP data plane (pinned failover, RCI rules).

Every case runs on both engines: the scalar reference walks, where a
pinned ride is a chain of ``('pin', path, index)`` states, and the
successor table, where the whole ride is folded into the diverting
AS's single row.
"""

import pytest

from reference import walk
from repro.forwarding.rbgp_plane import FAILOVER, PRIMARY, RBGPDataPlane
from repro.topology.graph import ASGraph
from repro.types import Outcome


@pytest.fixture
def graph():
    """1 -> 2 -> 9 chain plus alternate 1 -> 3 -> 9."""
    g = ASGraph()
    g.add_c2p(9, 2)
    g.add_c2p(9, 3)
    g.add_c2p(2, 1)
    g.add_c2p(3, 1)
    return g


@pytest.fixture(params=["scalar", "table"])
def classify(request):
    def run(plane, state, sources, **failures):
        engine = (
            walk.classify if request.param == "scalar" else walk.classify_batch
        )
        return engine(plane, state, sources, **failures)

    return run


def state_of(primaries, failovers=None):
    state = {}
    for asn, path in primaries.items():
        state[(asn, PRIMARY)] = path
    for asn, entries in (failovers or {}).items():
        state[(asn, FAILOVER)] = tuple(entries)
    return state


class TestPrimaryForwarding:
    def test_chain_delivery(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        state = state_of({1: (2, 9), 2: (9,), 9: ()})
        assert classify(plane, state, [1])[1] is Outcome.DELIVERED

    def test_no_route_no_failover_blackholes(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        state = state_of({1: None})
        assert classify(plane, state, [1])[1] is Outcome.BLACKHOLE


class TestFailoverDivert:
    def test_divert_onto_intact_entry(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        # 2's link to 9 failed; 1 advertised failover (1, 3, 9) to 2.
        state = state_of(
            {1: (2, 9), 2: (9,), 9: ()},
            {2: [(1, (1, 3, 9))]},
        )
        outcomes = classify(plane, state, [1, 2], failed_links=frozenset({(2, 9)}))
        assert outcomes[2] is Outcome.DELIVERED
        assert outcomes[1] is Outcome.DELIVERED

    def test_rci_skips_broken_entry_and_uses_next(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        state = state_of(
            {2: (9,), 9: ()},
            {2: [(0, (0, 5, 9)), (1, (1, 3, 9))]},
        )
        outcomes = classify(
            plane, state, [2], failed_links=frozenset({(2, 9), (5, 9)})
        )
        assert outcomes[2] is Outcome.DELIVERED

    def test_no_rci_pins_broken_first_entry(self, graph, classify):
        plane = RBGPDataPlane(9, rci=False, graph=graph)
        state = state_of(
            {2: (9,), 9: ()},
            {2: [(0, (0, 5, 9)), (1, (1, 3, 9))]},
        )
        outcomes = classify(
            plane, state, [2], failed_links=frozenset({(2, 9), (5, 9)})
        )
        # Oblivious pick rides the first (broken) entry and drops.
        assert outcomes[2] is Outcome.BLACKHOLE

    def test_no_rci_remote_loss_cannot_divert(self, graph, classify):
        plane = RBGPDataPlane(9, rci=False, graph=graph)
        # AS 1 lost its route remotely (no adjacent failure); it has a
        # failover entry but may not use it without RCI.
        state = state_of(
            {1: None, 9: ()},
            {1: [(4, (4, 3, 9))]},
        )
        outcomes = classify(plane, state, [1], failed_links=frozenset({(2, 9)}))
        assert outcomes[1] is Outcome.BLACKHOLE

    def test_no_rci_local_detector_may_divert(self, graph, classify):
        plane = RBGPDataPlane(9, rci=False, graph=graph)
        state = state_of(
            {2: None, 9: ()},
            {2: [(1, (1, 3, 9))]},
        )
        outcomes = classify(plane, state, [2], failed_links=frozenset({(2, 9)}))
        assert outcomes[2] is Outcome.DELIVERED

    def test_rci_remote_loss_diverts(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        state = state_of(
            {1: None, 9: ()},
            {1: [(4, (4, 3, 9))]},
        )
        outcomes = classify(plane, state, [1], failed_links=frozenset({(2, 9)}))
        assert outcomes[1] is Outcome.DELIVERED

    def test_bounce_back_through_upstream(self, graph, classify):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        # The packet bounces from 2 back to upstream 1, then rides 1's
        # alternate (1, 3, 9) pinned to the destination.
        state = state_of(
            {2: (9,), 3: (9,), 9: ()},
            {2: [(1, (1, 3, 9))]},
        )
        outcomes = classify(plane, state, [2], failed_links=frozenset({(2, 9)}))
        assert outcomes[2] is Outcome.DELIVERED

    def test_divert_happens_only_once(self, graph, classify):
        plane = RBGPDataPlane(9, rci=False, graph=graph)
        # Pinned path itself ends nowhere near the destination.
        state = state_of(
            {2: (9,), 9: ()},
            {2: [(1, (1, 3))]},
        )
        outcomes = classify(plane, state, [2], failed_links=frozenset({(2, 9)}))
        assert outcomes[2] is Outcome.BLACKHOLE

    def test_pinned_path_may_pass_back_through_the_diverting_as(
        self, graph, classify
    ):
        plane = RBGPDataPlane(9, rci=True, graph=graph)
        # 2 diverts onto a path that bounces via 1 back through 2
        # itself; the ride is pinned, so 2's own (dead) primary is not
        # consulted again and the packet neither loops nor drops.
        state = state_of(
            {2: (9,), 9: ()},
            {2: [(1, (1, 2, 3, 9))]},
        )
        outcomes = classify(plane, state, [2], failed_links=frozenset({(2, 9)}))
        assert outcomes[2] is Outcome.DELIVERED

    def test_staleness_is_judged_on_the_whole_entry(self, graph, classify):
        # The entry reaches the destination and then crosses a failed
        # link.  RCI knows the entry traverses the root cause and skips
        # it; the oblivious pick rides it and is delivered at 9.
        state = state_of(
            {2: (9,), 9: ()},
            {2: [(1, (1, 9, 5))]},
        )
        failed = frozenset({(2, 9), (5, 9)})
        for rci, expected in ((True, Outcome.BLACKHOLE), (False, Outcome.DELIVERED)):
            plane = RBGPDataPlane(9, rci=rci, graph=graph)
            outcomes = classify(plane, state, [2], failed_links=failed)
            assert outcomes[2] is expected, rci

    def test_no_rci_neighbours_of_a_failed_as_detect_locally(
        self, graph, classify
    ):
        plane = RBGPDataPlane(9, rci=False, graph=graph)
        # AS 2 died.  Its neighbour 1 saw the session drop and may
        # divert; 7 is not adjacent to 2, so its loss is remote.
        state = state_of(
            {1: (2, 9), 7: None, 3: (9,), 9: ()},
            {1: [(3, (3, 9))], 7: [(3, (3, 9))]},
        )
        outcomes = classify(
            plane, state, [1, 7], failed_ases=frozenset({2})
        )
        assert outcomes[1] is Outcome.DELIVERED
        assert outcomes[7] is Outcome.BLACKHOLE
