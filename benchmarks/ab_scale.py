"""Scale A/B: CPU time of one episode per plane, two source trees, equal digests.

    python benchmarks/ab_scale.py --a /root/scratch/parent/src --b src \\
        --scale 20 --kind fig2 --planes bgp rbgp-norci rbgp stamp --passes 5

The decision tool for "does this mechanism pay at 12k ASes": side A and
side B are two ``src`` trees (a parent checkout against the working
tree, or the working tree against a scratch copy with one elision
patched out).  Every pass runs one child process per side per plane
with ``PYTHONPATH`` set to that tree — sides alternating, the side that
goes first rotating — and each child times ``run_episode`` with
``time.process_time`` (wall clock swings ±50% on a shared VM).  The two
R-BGP variants run in one child, ``rbgp-norci`` first, because they
share a start.  A sha256 over each run's result must agree between the
sides before any timing means anything; the exit code is 1 if one does
not.  Standard library only, and only names both trees are sure to
have: ``run_episode``, the scenario builders, the topology generator.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

#: ``--scale`` → tier sizes: the 62-AS bench graph, the default 616-AS
#: graph, and the 12,180-AS "scale-20" graph of the CI slow lane.
SCALES = {
    0: dict(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35),
    1: dict(seed=0),
    20: dict(seed=0, n_tier1=20, n_tier2=960, n_tier3=2400, n_stub=8800),
}
RBGP_PAIR = ("rbgp-norci", "rbgp")


def child(scale: int, kind: str, planes: list, seed: int) -> None:
    """One timed run in this interpreter's ``repro``; prints one JSON line."""
    from repro.experiments import scenarios
    from repro.experiments.runner import run_episode
    from repro.topology.generators import (
        InternetTopologyConfig,
        generate_internet_topology,
    )

    graph, _ = generate_internet_topology(InternetTopologyConfig(**SCALES[scale]))
    rng = random.Random(f"ab-scale:{seed}")
    if kind == "fig2":
        episode = scenarios.single_provider_link_failure(graph, rng)
    else:
        episode = scenarios.link_flap_episode(
            graph, rng, period=2.0, flaps=int(kind[len("flap"):])
        )

    def fields(report):
        return (
            sorted(report.eligible), sorted(report.affected),
            sorted(report.looped), sorted(report.blackholed),
            sorted(report.permanently_unreachable),
            report.timeline, report.problem_timeline,
        )

    cpu = 0.0
    digest = hashlib.sha256()
    for plane in planes:
        started = time.process_time()
        run = run_episode(graph, episode, plane, seed=seed)
        cpu += time.process_time() - started
        digest.update(repr((
            plane, fields(run.report),
            [fields(phase.report) for phase in run.phases],
            run.convergence_time, run.announcements, run.withdrawals,
            run.initial_updates, run.initial_convergence_time,
        )).encode())
    print(json.dumps({"cpu_s": cpu, "digest": digest.hexdigest()}))


def episode_kind(text: str) -> str:
    if not re.fullmatch(r"fig2|flap[1-9]\d*", text):
        raise argparse.ArgumentTypeError(f"{text!r}: expected fig2 or flapN")
    return text


def run_side(src: str, args, planes: tuple) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--scale", str(args.scale), "--kind", args.kind,
        "--seed", str(args.seed), "--planes", *planes,
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"child failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", help="src tree of side A")
    parser.add_argument("--b", help="src tree of side B")
    parser.add_argument("--scale", type=int, choices=sorted(SCALES), default=20)
    parser.add_argument(
        "--kind", type=episode_kind, default="fig2",
        help="fig2, or flapN (N flaps, 2 s apart)",
    )
    parser.add_argument(
        "--planes", nargs="+", default=["bgp", *RBGP_PAIR, "stamp"],
        choices=["bgp", *RBGP_PAIR, "stamp"],
    )
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.scale, args.kind, args.planes, args.seed)
        return 0
    if not (args.a and args.b):
        parser.error("--a and --b are required")

    pair = tuple(p for p in RBGP_PAIR if p in args.planes)
    groups = [g for g in (("bgp",), pair, ("stamp",)) if g and g[0] in args.planes]
    sides = {"A": args.a, "B": args.b}
    sys.stdout.reconfigure(line_buffering=True)  # live progress into a log
    print(f"# A={args.a} B={args.b} scale={args.scale} kind={args.kind} "
          f"seed={args.seed} passes={args.passes} (CPU s, process_time)")
    times = {group: {"A": [], "B": []} for group in groups}
    mismatches = 0
    for number in range(args.passes):
        order = ("A", "B") if number % 2 == 0 else ("B", "A")
        for group in groups:
            results = {side: run_side(sides[side], args, group) for side in order}
            same = results["A"]["digest"] == results["B"]["digest"]
            mismatches += not same
            for side in ("A", "B"):
                times[group][side].append(results[side]["cpu_s"])
            print(
                f"pass {number + 1} {'+'.join(group):16s} first={order[0]} "
                f"A={results['A']['cpu_s']:.3f} B={results['B']['cpu_s']:.3f} "
                f"digest={results['A']['digest'][:12]} "
                f"{'equal' if same else 'DIFFERS ' + results['B']['digest'][:12]}"
            )
    for group in groups:
        a, b = times[group]["A"], times[group]["B"]
        faster = sum(y < x for x, y in zip(a, b))
        print(
            f"{'+'.join(group):16s} A min {min(a):.3f} median {statistics.median(a):.3f}"
            f" | B min {min(b):.3f} median {statistics.median(b):.3f}"
            f" | sum B/A {sum(b) / sum(a) - 1:+.1%} | B faster in {faster} of {len(a)}"
        )
    if mismatches:
        print(f"{mismatches} digest mismatch(es): the sides computed different results")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
