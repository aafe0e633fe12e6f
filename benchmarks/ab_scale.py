"""Scale A/B: CPU time of one episode per plane, two source trees, equal digests.

    python benchmarks/ab_scale.py --a ../parent/src --b src \\
        --scale 20 --kind fig2 --planes bgp rbgp-norci rbgp stamp --passes 5

The decision tool for "does this mechanism pay at 12k ASes": side A and
side B are two ``src`` trees (a parent checkout against the working
tree, or the working tree against a scratch copy with one elision
patched out).  Every pass runs one child process per side per plane
with ``PYTHONPATH`` set to that tree — sides alternating, the side that
goes first rotating — and each child times ``run_episode`` with
``time.process_time`` (wall clock swings ±50% on a shared VM).  The two
R-BGP variants run in one child, ``rbgp-norci`` first, because they
share a start.  The child runs with the cyclic garbage collector off,
as every production path runs a unit (``supervisor._cyclic_gc_paused``):
nothing leaks, because ``run_episode`` disposes each network, and a
collection landing in one side's timed window would otherwise be noise
of the allocator's, not of the change.  Each child also reports its
peak resident set (``ru_maxrss``, the graph included), and the summary
prints its median per side.  A sha256 over each run's result
must agree between the sides before any timing means anything; the
exit code is 1 if one does not.  Standard library only, and only names
both trees are sure to have: ``run_episode``, the scenario builders,
the topology generator.

``--kind``: ``fig2`` (one link failure) or ``flapN`` (N flaps, 2 s
apart).

``--instances N`` measures what a campaign holds, not one episode: each
child runs N instances of the family (instance-major, planes in order,
as a campaign's grid does) and keeps every ``EpisodeRun`` alive to the
end, so its peak RSS is an N-instance campaign's.  After the passes,
one more child per side and group runs the same N instances under
``tracemalloc`` and reports what is live when the last one ends, by
layer (``repro`` subpackage, ``imports``, ``python``), with the top
``SITES`` allocation sites: where to spend before spending.

    python benchmarks/ab_scale.py --a ../parent/src --b src \\
        --scale 1 --kind flap32 --instances 30 --passes 3
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

#: ``--scale`` → tier sizes: the 62-AS bench graph, the default 616-AS
#: graph, the 12,180-AS "scale-20" graph of the CI slow lane and the
#: 26,920-AS graph of the paper's size.
SCALES = {
    0: dict(seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35),
    1: dict(seed=0),
    20: dict(seed=0, n_tier1=20, n_tier2=960, n_tier3=2400, n_stub=8800),
    45: dict(seed=0, n_tier1=20, n_tier2=2100, n_tier3=5300, n_stub=19500),
}
RBGP_PAIR = ("rbgp-norci", "rbgp")
#: Allocation sites listed per side by the ``--instances`` attribution.
SITES = 8


def layer_of(filename: str) -> str:
    """The layer an allocation site belongs to: ``repro.<subpackage>``
    (``repro`` for its top-level modules), ``imports`` for the import
    machinery, ``python`` for everything else."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts[:-1]:
        below = parts[len(parts) - parts[::-1].index("repro"):]
        return "repro." + below[0] if len(below) > 1 else "repro"
    if filename.startswith("<frozen"):
        return "imports"
    return "python"


def site_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts[:-1]:
        return "/".join(parts[len(parts) - 1 - parts[::-1].index("repro"):])
    return parts[-1]


def live_by_layer() -> dict:
    """What ``tracemalloc`` sees live now: bytes per layer, top sites."""
    layers: dict = {}
    top = []
    for stat in tracemalloc.take_snapshot().statistics("lineno"):
        frame = stat.traceback[0]
        layer = layer_of(frame.filename)
        layers[layer] = layers.get(layer, 0) + stat.size
        if len(top) < SITES:
            top.append((f"{site_of(frame.filename)}:{frame.lineno}", stat.size))
    return {"layers": layers, "sites": top}


def child(
    scale: int, kind: str, planes: list, seed: int,
    instances: int = 1, attribute: bool = False,
) -> None:
    """One timed run in this interpreter's ``repro``; prints one JSON line.

    ``attribute`` makes it the attribution child: it traces allocations
    from before the graph is built and reports, instead of a timing,
    what is live once every run has ended (see :func:`live_by_layer`).
    """
    if attribute:
        tracemalloc.start()
    from repro.experiments import scenarios
    from repro.experiments.runner import run_episode
    from repro.topology.generators import (
        InternetTopologyConfig,
        generate_internet_topology,
    )

    graph, _ = generate_internet_topology(InternetTopologyConfig(**SCALES[scale]))
    episodes = []
    for instance in range(instances):
        # Instance 0 is the one-episode tool's episode.
        rng = random.Random(
            f"ab-scale:{seed}:{instance}" if instance else f"ab-scale:{seed}"
        )
        if kind == "fig2":
            episodes.append(scenarios.single_provider_link_failure(graph, rng))
        else:
            episodes.append(scenarios.link_flap_episode(
                graph, rng, period=2.0, flaps=int(kind[len("flap"):])
            ))
    gc.disable()

    def fields(report):
        return (
            sorted(report.eligible), sorted(report.affected),
            sorted(report.looped), sorted(report.blackholed),
            sorted(report.permanently_unreachable),
            report.timeline, report.problem_timeline,
        )

    cpu = 0.0
    digest = hashlib.sha256()
    runs = []  # held to the end, as a campaign's grid holds its results
    for instance, episode in enumerate(episodes):
        for plane in planes:
            started = time.process_time()
            run = run_episode(graph, episode, plane, seed=seed + instance)
            cpu += time.process_time() - started
            runs.append(run)
            digest.update(repr((
                plane, fields(run.report),
                [fields(phase.report) for phase in run.phases],
                run.convergence_time, run.announcements, run.withdrawals,
                run.initial_updates, run.initial_convergence_time,
            )).encode())
    if attribute:
        # A full collection also empties the free lists, whose blocks
        # tracemalloc would otherwise count at the site that made them.
        gc.collect()
        live = live_by_layer()
        live["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        print(json.dumps(live))
        return
    # ru_maxrss is in KiB on Linux: the child's peak, graph included.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "cpu_s": cpu, "digest": digest.hexdigest(), "peak_rss_mb": peak_rss_mb,
    }))


def episode_kind(text: str) -> str:
    if text != "fig2" and not re.fullmatch(r"flap[1-9]\d*", text):
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected fig2 or flapN"
        )
    return text


def positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: expected a positive integer")
    return int(text)


def run_side(src: str, args, planes: tuple, attribute: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--scale", str(args.scale), "--kind", args.kind,
        "--seed", str(args.seed), "--planes", *planes,
        "--instances", str(args.instances or 1),
        *(["--attribute"] if attribute else []),
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
        help="fig2 or flapN (N flaps, 2 s apart)",
    )
    parser.add_argument(
        "--planes", nargs="+", default=["bgp", *RBGP_PAIR, "stamp"],
        choices=["bgp", *RBGP_PAIR, "stamp"],
    )
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--instances", type=positive,
        help="run N instances per child, keep every run alive, then "
        "attribute what is live by layer (tracemalloc)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--attribute", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(
            args.scale, args.kind, args.planes, args.seed,
            args.instances or 1, args.attribute,
        )
        return 0
    if not (args.a and args.b):
        parser.error("--a and --b are required")

    pair = tuple(p for p in RBGP_PAIR if p in args.planes)
    groups = [g for g in (("bgp",), pair, ("stamp",)) if g and g[0] in args.planes]
    sides = {"A": args.a, "B": args.b}
    sys.stdout.reconfigure(line_buffering=True)  # live progress into a log
    print(f"# A={args.a} B={args.b} scale={args.scale} kind={args.kind} "
          f"seed={args.seed} passes={args.passes}"
          f"{f' instances={args.instances}' if args.instances else ''}"
          f" (CPU s, process_time)")
    times = {group: {"A": [], "B": []} for group in groups}
    peaks = {group: {"A": [], "B": []} for group in groups}
    mismatches = 0
    for number in range(args.passes):
        order = ("A", "B") if number % 2 == 0 else ("B", "A")
        for group in groups:
            results = {side: run_side(sides[side], args, group) for side in order}
            same = results["A"]["digest"] == results["B"]["digest"]
            mismatches += not same
            for side in ("A", "B"):
                times[group][side].append(results[side]["cpu_s"])
                peaks[group][side].append(results[side]["peak_rss_mb"])
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
            f" | peak RSS median A {statistics.median(peaks[group]['A']):.1f}"
            f" B {statistics.median(peaks[group]['B']):.1f} MB"
        )
    if args.instances:
        for group in groups:
            print_attribution(group, {
                side: run_side(sides[side], args, group, attribute=True)
                for side in ("A", "B")
            })
    if mismatches:
        print(f"{mismatches} digest mismatch(es): the sides computed different results")
    return 1 if mismatches else 0


def print_attribution(group: tuple, live: dict) -> None:
    """One group's grid-end ``tracemalloc`` attribution, both sides."""
    mb = 2**20
    print(f"# live at the end of the last run, {'+'.join(group)} "
          f"(tracemalloc MB, A | B)")
    layers = sorted(
        set(live["A"]["layers"]) | set(live["B"]["layers"]),
        key=lambda layer: -live["A"]["layers"].get(layer, 0),
    )
    for layer in layers:
        a, b = (live[side]["layers"].get(layer, 0) / mb for side in ("A", "B"))
        print(f"  {layer:24s} {a:8.2f} | {b:8.2f}")
    totals = [sum(live[side]["layers"].values()) / mb for side in ("A", "B")]
    print(f"  {'total':24s} {totals[0]:8.2f} | {totals[1]:8.2f}"
          f"   traced peak {live['A']['traced_peak_mb']:.2f}"
          f" | {live['B']['traced_peak_mb']:.2f}")
    for side in ("A", "B"):
        for site, size in live[side]["sites"]:
            print(f"  {side} {site:48s} {size / mb:8.2f}")


if __name__ == "__main__":
    sys.exit(main())
