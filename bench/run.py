#!/usr/bin/env python3
"""Run the repo benchmark.

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload the way ``BENCHMARK.json`` describes and prints,
as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Without
``--workload`` it runs all four workloads, without ``--trace`` both
passes; a result file (every round's value beside the reported one)
and ``trace-<workload>.json`` are written under ``--out``.

Exit status is non-zero when any check failed (see ``README.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import measure, tracing, workloads  # noqa: E402
from bench.workloads import Checks, Round  # noqa: E402

BENCH = Path(__file__).resolve().parent
#: Share of a traced run's ``--seconds`` spent on untraced reference
#: rounds (their best wall is the base of ``trace.overhead_share``).
REFERENCE_SHARE = 0.4
TRACED_PASSES = 2

#: Once-per-round values that are per-layer metrics of the workload
#: that has them: name in the round -> metric.
_ROUND_VALUES = {
    "resume_wall_s": "experiments.resume_wall_s",
    "ledger_bytes_per_unit": "experiments.ledger_bytes_per_unit",
    "ledger_hit_ratio": "experiments.ledger_hit_ratio",
    "restart_ready_s": "service.restart_ready_s",
    "queue_wait_ms": "service.queue_wait_ms",
    "exec_ms": "service.exec_ms",
    "journal_bytes_per_campaign": "service.journal_bytes_per_campaign",
    "refused": "service.refused",
}


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict[str, object]:
    return json.loads((BENCH / "expected.json").read_text())


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def measure_rounds(
    workload, seed: int, seconds: float, state_root: Path,
    max_rounds: Optional[int] = None,
) -> List[Round]:
    """Run rounds while the next one would end nearer to ``seconds``
    than this one did.

    At least two, so every operation has a second repetition and the
    determinism check has something to compare.
    """
    started = time.perf_counter()
    rounds: List[Round] = []
    took: List[float] = []
    enough = False
    while not enough:
        began = time.perf_counter()
        state = Path(tempfile.mkdtemp(prefix="round-", dir=state_root))
        try:
            rounds.append(workload.run_round(seed, state))
        finally:
            shutil.rmtree(state, ignore_errors=True)
        took.append(time.perf_counter() - began)
        if max_rounds is not None:
            enough = len(rounds) >= max_rounds
        else:
            elapsed = time.perf_counter() - started
            enough = (len(rounds) >= 2
                      and elapsed + statistics.median(took) / 2 > seconds)
    return rounds


def typical_parts(rounds: Sequence[Round], attribute: str) -> Dict[str, float]:
    """Operation -> the median of its repetitions across the rounds.

    Each repetition is already at reference speed; what is left is the
    error of its two pace samples (the host can change pace while the
    operation runs), which goes either way — so the median, not the
    minimum.
    """
    parts: Dict[str, List[float]] = {}
    for entry in rounds:
        for key, value in getattr(entry, attribute).items():
            parts.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in parts.items()}


def end_to_end(rounds: Sequence[Round], declared: Sequence[dict]) -> Dict[str, dict]:
    """Reported value per end-to-end metric, every round's value beside it.

    Times are at reference speed, assembled operation by operation
    (sum of each operation's median repetition); ``peak_rss_mb`` is the
    median of rounds.  Only rounds without a failed check count.
    """
    rounds = [r for r in rounds if r.failed == 0 and r.walls and r.units]
    if not rounds:
        return {}
    units = rounds[0].units
    wall = sum(typical_parts(rounds, "walls").values())
    walls = [sum(r.walls.values()) for r in rounds]
    setups = [r.values["setup_s"] for r in rounds]
    rss = [r.rss_mb for r in rounds]
    values = {
        "setup_s": (statistics.median(setups), setups),
        "wall_s": (wall, walls),
        "units_per_s": (units / wall, [units / w for w in walls]),
        "cpu_s": (sum(typical_parts(rounds, "cpus").values()),
                  [sum(r.cpus.values()) for r in rounds]),
        "peak_rss_mb": (statistics.median(rss), rss),
    }
    report: Dict[str, dict] = {}
    for metric in declared:
        value, per_round = values[metric["name"]]
        report[metric["name"]] = {
            "value": value, "unit": metric["unit"],
            **measure.spread(per_round),
        }
    return report


def extras(rounds: Sequence[Round]) -> Dict[str, float]:
    """The workload's own numbers, under their per-layer names.

    Once-per-round values are the median of rounds; client-side service
    timings are taken per campaign (median repetition of each, in
    session order) and the percentiles over those.
    """
    rounds = [r for r in rounds if r.failed == 0]
    found: Dict[str, float] = {}
    for key, name in _ROUND_VALUES.items():
        values = [r.values[key] for r in rounds if key in r.values]
        if values:
            found[name] = statistics.median(values)
    series = [r.series for r in rounds if r.series]
    if series:
        typical = {
            key: [statistics.median(column) for column in zip(*(s[key] for s in series))]
            for key in series[0]
        }
        wall = sum(typical_parts(rounds, "walls").values())
        found.update({
            "service.submit_ack_p50_ms": statistics.median(typical["ack_ms"]),
            "service.submit_to_done_p50_s": statistics.median(typical["done_s"]),
            "service.submit_to_done_p90_s": measure.percentile(typical["done_s"], 0.9),
            "service.campaigns_per_min": len(typical["done_s"]) / wall * 60.0,
            "service.status_poll_ms": statistics.median(typical["poll_ms"]),
            "service.result_fetch_ms": statistics.median(typical["fetch_ms"]),
            "service.polls_per_campaign": statistics.fmean(typical["polls"]),
        })
    return found


def verify(
    name: str, seed: int, digests: Sequence[Dict[str, str]],
    expected: Dict[str, object],
) -> Checks:
    """Outputs repeat exactly across rounds and, for the pinned seed,
    match ``expected.json``."""
    checks = Checks()
    pinned = expected["workloads"].get(name, {}) if seed == expected["seed"] else {}
    for label in sorted({label for entry in digests for label in entry}):
        seen = sorted({entry[label] for entry in digests if label in entry})
        if checks.check(
            len(seen) == 1, f"{name}: {label} differs between rounds: {seen}"
        ) and pinned:
            checks.check(
                pinned.get(label) == seen[0],
                f"{name}: {label} digest {seen[0]} != pinned {pinned.get(label)}",
            )
    return checks


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------


def _traced_child(mode_args: Sequence[object], state: Path) -> Tuple[measure.ChildResult, dict]:
    out = state / "spans.json"
    done = state / "spans.json.done"
    spawned = time.perf_counter()
    argv = [
        sys.executable, str(BENCH / "traced_child.py"),
        "--spawned-at", repr(spawned), "--out", str(out),
        *map(str, mode_args),
    ]
    child = measure.run_child(argv, state)
    document = {"spans": [], "statistics": []}
    if out.exists() and done.exists():
        document = json.loads(out.read_text())
        # From the script's last line to the reaped child: interpreter
        # teardown, part of what the command costs its user.
        document["spans"].append(tracing.Span(
            len(document["spans"]), "cli.exit", None, float(done.read_text()),
            end=spawned + child.wall_s,
        ).to_json())
    out.unlink(missing_ok=True)
    done.unlink(missing_ok=True)
    return child, document


def _statistics_digest(commands: Sequence[dict]) -> str:
    """Digest of every campaign's statistics, command by command.

    Within a command the campaigns are sorted: the service's lanes
    finish them in an order that is the scheduler's, not the program's.
    """
    digest = hashlib.sha256()
    for command in commands:
        for campaign in sorted(
            json.dumps(found, sort_keys=True) for found in command["statistics"]
        ):
            digest.update(campaign.encode())
    return digest.hexdigest()


def traced_pass(workload, seed: int, state: Path) -> dict:
    """One traced pass: every command of the workload in a traced child.

    Returns ``{"commands": [...], "slow", "checks": Checks}``; each
    command carries its leg, argv, the host's pace while it ran, its
    wall at reference speed, stdout, spans (as recorded: divide by
    ``slow``) and statistics.
    """
    checks = Checks()
    pace = measure.Pace()
    commands = []
    for leg, mode_args in workload.traced_commands(seed, state):
        child, document = _traced_child(mode_args, state)
        slow = pace.slowdown()
        checks.check_child(child, f"traced {leg} {' '.join(map(str, mode_args[-3:]))}")
        commands.append({
            "leg": leg,
            "argv": [str(a) for a in mode_args],
            "slow": slow,
            "wall_s": child.wall_s / slow,
            "stdout_sha256": workloads.sha256(child.stdout),
            "stdout": child.stdout.decode("utf-8", "replace"),
            "finished_at": document.get("finished_at"),
            "spans": document["spans"],
            "statistics": document["statistics"],
        })
    return {
        "commands": commands,
        "slow": statistics.fmean(command["slow"] for command in commands),
        "checks": checks,
    }


def _spans(commands: Sequence[dict]) -> List[tracing.Span]:
    """Spans of several traced children as one list: indices shifted,
    times brought to reference speed."""
    merged: List[tracing.Span] = []
    for command in commands:
        offset = len(merged)
        for doc in command["spans"]:
            span = tracing.Span.from_json(doc)
            span.start /= command["slow"]
            span.end /= command["slow"]
            span.index += offset
            if span.parent is not None:
                span.parent += offset
            merged.append(span)
    return merged


_STAGE_PREFIXES = ("plane.", "sim.", "analysis.")
_STAGE_KEYS = (
    "experiments.unit_self_s", "experiments.units",
    "experiments.twin_restores", "experiments.unit_retries",
)


def per_layer(workload, trace: dict, best_wall: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The traced pass's per-layer metrics, plus the digests it pins."""
    commands = trace["commands"]
    main = [c for c in commands if c["leg"] == "main"]
    serial = [c for c in commands if c["leg"] == "serial"]
    as_run = [c for c in commands if c["leg"] != "serial"]
    metrics = tracing.layer_metrics(_spans(as_run))
    digests = {"statistics": _statistics_digest(main)}
    if isinstance(workload, workloads.ServiceMixed):
        digests["results"] = main[0]["stdout"].strip()
        # In-process and concurrent: there is no single traced wall the
        # lanes' spans could sum to.
        metrics["trace.overhead_share"] = 0.0
        metrics["trace.coverage_share"] = 0.0
        return metrics, digests
    if serial:
        staged = tracing.layer_metrics(_spans(serial))
        metrics.update({
            key: value for key, value in staged.items()
            if key.startswith(_STAGE_PREFIXES) or key in _STAGE_KEYS
        })
    traced_wall = sum(c["wall_s"] for c in main)
    metrics["trace.overhead_share"] = traced_wall / best_wall - 1.0
    metrics["trace.coverage_share"] = (
        sum(tracing.covered_time(_spans([c])) for c in main) / traced_wall
    )
    for index, command in enumerate(main):
        digests[f"stdout-{index}"] = command["stdout_sha256"]
    # Resumed from the ledger, or run on another worker count: the same
    # numbers, bit for bit.
    pairs = [(c, main[0]) for c in commands if c["leg"] == "resume"]
    for other, reference in pairs + list(zip(serial, main)):
        trace["checks"].check(
            other["statistics"] == reference["statistics"]
            and other["stdout_sha256"] == reference["stdout_sha256"],
            f"{workload.name}: traced {other['leg']} leg disagrees with "
            "its main leg",
        )
    return metrics, digests


def run_probes(workload, state: Path) -> Tuple[Dict[str, float], Checks]:
    """Bare engine/transport probes, CLI start-up, worker-side shm attach."""
    checks = Checks()
    pace = measure.Pace()
    argv = [sys.executable, str(BENCH / "probes.py")]
    if isinstance(workload, workloads.PoolLedgerCampaigns):
        argv += ["--shm", str(workloads.TOPOLOGY_SEED), *map(str, workload.topology)]
    child = measure.run_child(argv, state)
    slow = pace.slowdown()
    probes: Dict[str, float] = {}
    if checks.check_child(child, "probes"):
        probes = {k: v / slow for k, v in json.loads(child.stdout).items()}
    startups = []
    for _ in range(3):
        child = measure.run_child(measure.cli_argv("--help"), state)
        checks.check_child(child, "repro.cli --help")
        startups.append(child.wall_s / pace.slowdown())
    probes["cli.startup_s"] = statistics.median(startups)
    return probes, checks


def pool_probe(workload, seed: int, state: Path, pool_wall: float) -> Tuple[Dict[str, float], Checks]:
    """Fan-out efficiency: the pool grid on one worker vs the pool, untraced."""
    checks = Checks()
    if not isinstance(workload, workloads.PoolLedgerCampaigns):
        return {}, checks
    setup = measure.run_child(measure.cli_argv(*workload.setup_args(state)), state)
    checks.check_child(setup, "pool probe set-up")
    pace = measure.Pace()
    serial_wall = 0.0
    for index in range(workload.campaigns):
        child = measure.run_child(
            measure.cli_argv(*workload.serial_args(seed, index, state)), state
        )
        checks.check_child(child, f"pool probe serial leg {index}")
        serial_wall += child.wall_s / pace.slowdown()
    return {
        "experiments.pool_efficiency": serial_wall / (workload.WORKERS * pool_wall),
        "experiments.pool_overhead_s": pool_wall - serial_wall / workload.WORKERS,
    }, checks


# ----------------------------------------------------------------------
# One workload, one pass
# ----------------------------------------------------------------------


def trace_workload(
    workload, seed: int, rounds: Sequence[Round], state_root: Path, out: Path,
    benchmark: dict,
) -> Tuple[Dict[str, dict], Dict[str, str], List[Checks]]:
    """The traced pass and the probes of one workload.

    Returns every declared per-layer metric (a layer the workload
    bypasses reads 0), the digests the pass pins and its checks; writes
    ``trace-<workload>.json``.
    """
    best_wall = sum(typical_parts(rounds, "walls").values())
    passes = []
    for _ in range(TRACED_PASSES):
        state = Path(tempfile.mkdtemp(prefix="traced-", dir=state_root))
        passes.append(traced_pass(workload, seed, state))
    # Keep the pass the host disturbed least (the one that needed the
    # least correction, not the one that reads fastest).
    kept = min(passes, key=lambda p: p["slow"])
    layers, digests = per_layer(workload, kept, best_wall)
    probes, probe_checks = run_probes(workload, state_root)
    pool, pool_checks = pool_probe(workload, seed, state_root, best_wall)
    layers.update(extras(rounds))
    layers.update(probes)
    layers.update(pool)
    ack = layers.get("service.submit_ack_p50_ms")
    if ack is not None:
        layers["service.http_overhead_ms"] = (
            ack - layers["service.submit_inproc_us"] / 1e3
        )
    declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    undeclared = Checks()
    undeclared.check(
        set(layers) <= set(declared),
        f"per-layer metrics missing from BENCHMARK.json: {sorted(set(layers) - set(declared))}",
    )
    (out / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "commands": kept["commands"],
    }))
    reported = {
        name: {"value": layers.get(name, 0.0), "unit": unit}
        for name, unit in declared.items()
    }
    checks = [p["checks"] for p in passes] + [probe_checks, pool_checks, undeclared]
    return reported, digests, checks


def run_workload(
    workload, seed: int, seconds: float, trace: bool, out: Path,
    benchmark: dict, expected: dict, max_rounds: Optional[int] = None,
) -> dict:
    """Measure one workload; returns its result-file entry.

    An untraced pass fills ``end_to_end``; a traced pass adds
    ``per_layer``, its ``end_to_end`` coming from the few untraced
    reference rounds.
    """
    out.mkdir(parents=True, exist_ok=True)
    state_root = Path(tempfile.mkdtemp(prefix="state-", dir=out))
    try:
        budget = seconds * REFERENCE_SHARE if trace else seconds
        rounds = measure_rounds(workload, seed, budget, state_root, max_rounds)
        checks: List[Checks] = list(rounds)
        digests = [r.digests for r in rounds]
        entry: Dict[str, object] = {
            "end_to_end": end_to_end(rounds, benchmark["end_to_end"]),
            "extras": extras(rounds),
        }
        if trace and entry["end_to_end"]:
            measured = [r for r in rounds if r.failed == 0]
            entry["per_layer"], traced_digests, traced_checks = trace_workload(
                workload, seed, measured, state_root, out, benchmark
            )
            digests.append(traced_digests)
            checks += traced_checks
        checks.append(verify(workload.name, seed, digests, expected))
        entry.update({
            "digests": {k: v for found in digests for k, v in found.items()},
            "attempted": sum(c.attempted for c in checks),
            "failed": sum(c.failed for c in checks),
            "errors": [e for c in checks for e in c.errors],
            "meta": measure.host_meta(
                state_root, [c for r in rounds for c in r.calibrations]
            ),
        })
        return entry
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


def contract_line(entry: dict, trace: bool, benchmark: dict) -> dict:
    """The one JSON object the driver reads from the last stdout line."""
    section = "per_layer" if trace else "end_to_end"
    reported = entry.get(section, {})
    metrics = {
        m["name"]: {"value": reported[m["name"]]["value"], "unit": m["unit"]}
        for m in benchmark[section] if m["name"] in reported
    }
    # A metric that could not be measured is a failed operation.
    missing = len(benchmark[section]) - len(metrics)
    failed = entry["failed"] + missing
    return {
        "correct": failed == 0,
        "attempted": max(1, entry["attempted"] + missing),
        "failed": failed,
        "metrics": metrics,
    }


def print_entry(name: str, entry: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        for metric, reported in entry.get(section, {}).items():
            print(f"{name:18s} {metric:40s} {reported['value']:14.6g} {reported['unit']}")
    print(f"{name:18s} {'attempted':40s} {entry['attempted']:14d}")
    print(f"{name:18s} {'failed':40s} {entry['failed']:14d}")
    for error in entry["errors"]:
        print(f"{name}: FAILED: {error}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (measure.SRC / "repro" / "cli.py").exists():
        print(f"bench: no program to measure under {measure.SRC}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: traced pass (default: both)")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="where result and trace files go")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected.json from this run's digests "
                             "(all workloads, both passes; for a benchmark PR)")
    args = parser.parse_args(argv)

    measure.pin_to_one_cpu()
    table = workloads.build()
    selected = [args.workload] if args.workload else names
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    expected = load_expected()
    if args.write_expected:
        if args.workload or args.trace is not None:
            parser.error("--write-expected pins every workload and both passes")
        expected = {"seed": args.seed, "workloads": {}}

    results: Dict[str, dict] = {}
    line = None
    for name in selected:
        for trace in passes:
            entry = run_workload(
                table[name], args.seed, args.seconds, trace, args.out,
                benchmark, expected,
            )
            line = contract_line(entry, trace, benchmark)
            merged = results.setdefault(name, entry)
            if merged is not entry:
                # The traced pass adds the layers; end-to-end numbers
                # stay those of the untraced pass.
                merged["per_layer"] = entry.get("per_layer", {})
                merged["digests"].update(entry["digests"])
                merged["attempted"] += entry["attempted"]
                merged["failed"] += entry["failed"]
                merged["errors"] += entry["errors"]
        print_entry(name, results[name])

    suffix = ""
    if args.workload:
        suffix = f"-{args.workload}"
        if args.trace is not None:
            suffix += f"-trace{args.trace}"
    (args.out / f"result{suffix}.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "workloads": results,
    }, indent=1))
    failed = sum(entry["failed"] for entry in results.values())
    if args.write_expected and failed == 0:
        pinned = {"seed": args.seed, "workloads": {
            name: entry["digests"] for name, entry in results.items()
        }}
        (BENCH / "expected.json").write_text(
            json.dumps(pinned, indent=2, sort_keys=True) + "\n"
        )
    if args.workload and args.trace is not None:
        sys.stdout.flush()
        print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
