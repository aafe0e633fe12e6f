"""Unit tests for the generic functional-graph walk classifier."""

from reference.walk import classify_batch, classify_functional_graph
from repro.types import Outcome


def classify(successors, starts, terminal):
    return classify_functional_graph(
        starts,
        successor=lambda s: successors.get(s),
        delivered=lambda s: s == terminal,
    )


class TestBasicShapes:
    def test_chain_delivers(self):
        outcomes = classify({1: 2, 2: 3}, [1], terminal=3)
        assert outcomes[1] is Outcome.DELIVERED
        assert outcomes[2] is Outcome.DELIVERED

    def test_dead_end_blackholes(self):
        outcomes = classify({1: 2}, [1], terminal=9)
        assert outcomes[1] is Outcome.BLACKHOLE
        assert outcomes[2] is Outcome.BLACKHOLE

    def test_two_cycle_loops(self):
        outcomes = classify({1: 2, 2: 1}, [1], terminal=9)
        assert outcomes[1] is Outcome.LOOP
        assert outcomes[2] is Outcome.LOOP

    def test_self_loop(self):
        outcomes = classify({1: 1}, [1], terminal=9)
        assert outcomes[1] is Outcome.LOOP

    def test_tail_into_cycle_loops(self):
        outcomes = classify({0: 1, 1: 2, 2: 1}, [0], terminal=9)
        assert outcomes[0] is Outcome.LOOP

    def test_terminal_start(self):
        outcomes = classify({}, [3], terminal=3)
        assert outcomes[3] is Outcome.DELIVERED


class TestMemoization:
    def test_memo_shared_across_starts(self):
        successors = {i: i + 1 for i in range(100)}
        memo = {}
        classify_functional_graph(
            [0], lambda s: successors.get(s), lambda s: s == 100, memo=memo
        )
        assert memo[50] is Outcome.DELIVERED
        # A second classification reuses the memo without walking.
        out = classify_functional_graph(
            [50], lambda s: 1 / 0, lambda s: s == 100, memo=memo
        )
        assert out[50] is Outcome.DELIVERED

    def test_long_chain_does_not_recurse(self):
        # 100k-deep chain would blow the recursion limit if recursive.
        successors = {i: i + 1 for i in range(100_000)}
        outcomes = classify(successors, [0], terminal=100_000)
        assert outcomes[0] is Outcome.DELIVERED

    def test_outcome_partition(self):
        successors = {1: 2, 2: 3, 4: 5, 5: 4, 6: None}
        outcomes = classify(successors, [1, 4, 6], terminal=3)
        assert outcomes[1] is Outcome.DELIVERED
        assert outcomes[4] is Outcome.LOOP
        assert outcomes[6] is Outcome.BLACKHOLE


class TestSuccessorTable:
    """The table engine against the scalar one on the same shapes."""

    def table(self, successors, starts):
        from repro.forwarding.bgp_plane import BGPDataPlane

        state = {(s, None): (nxt,) for s, nxt in successors.items()}
        return classify_batch(BGPDataPlane(destination=9), state, starts)

    def test_matches_scalar_on_mixed_shapes(self):
        successors = {
            1: 2, 2: 9,            # chain to destination
            3: 4, 4: 3,            # two-cycle
            5: 5,                  # self-loop
            6: 3,                  # tail into cycle
            7: 8,                  # 8 has no successor: blackhole
        }
        starts = [1, 3, 5, 6, 7, 9]
        scalar = classify(successors, starts, terminal=9)
        assert self.table(successors, starts) == {
            s: scalar[s] for s in starts
        }

    def test_long_chain(self):
        n = 5000
        successors = {i: i + 1 for i in range(n) if i != 9}
        successors[8] = 10  # 9 is the destination: end the chain on it
        successors[n] = 9
        outcomes = self.table(successors, [0])
        assert outcomes[0] is Outcome.DELIVERED
