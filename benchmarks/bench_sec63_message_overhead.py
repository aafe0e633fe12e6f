"""Section 6.3 — protocol message overhead.

Paper: STAMP's two parallel processes generate less than twice the
updates of one standard BGP process.  We report the initial-convergence
ratio (the clean analogue of running two processes) and the post-event
episode ratio, which can exceed 2x when the failure hits the locked
blue chain and the whole blue tree must rebuild (see
docs/architecture.md, "Where this reproduction departs from the
paper").
"""

from repro.experiments.figures import sec63_message_overhead
from repro.experiments.reporting import format_table


def test_sec63_message_overhead(benchmark, experiment_config):
    data = benchmark.pedantic(
        sec63_message_overhead, args=(experiment_config,), rounds=1, iterations=1
    )
    print()
    print("== Section 6.3: update-message overhead (STAMP vs BGP) ==")
    print(
        format_table(
            ["phase", "BGP updates", "STAMP updates", "ratio", "paper"],
            [
                (
                    "initial convergence",
                    f"{data.mean_initial_updates_bgp:.0f}",
                    f"{data.mean_initial_updates_stamp:.0f}",
                    f"{data.initial_ratio:.2f}",
                    "< 2",
                ),
                (
                    "failure episode",
                    f"{data.mean_episode_updates_bgp:.0f}",
                    f"{data.mean_episode_updates_stamp:.0f}",
                    f"{data.episode_ratio:.2f}",
                    "-",
                ),
            ],
        )
    )
    assert data.initial_ratio < 2.5
