#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py`` against the bounds.

``python bench/compare.py A.json B.json`` prints one row per
(end-to-end metric, workload) present in both files: both values, how
much worse B is than A as a share of A (negative: better), the
metric's bound from ``BENCHMARK.json`` and a verdict:

``same``
    B is not worse than A by more than the bound;
``worse``
    it is, and the measurement resolves it: on both sides a second
    round confirms the reported one within the bound, or every round of
    B is worse than every round of A;
``unresolved``
    it is, but a reported value stands on a single undisturbed round
    and the two files' rounds overlap — read it against
    ``host.noise_ratio`` in each file's ``meta`` and run again.

Exits non-zero on any ``worse``.  A is the base of every ratio.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def confirmed(entry: dict, better: str, bound: float) -> bool:
    """Whether a second round lies within ``bound`` of the reported value."""
    value = entry["value"]
    others = sorted(entry["rounds"], key=lambda r: abs(r - value))[1:]
    return bool(others) and abs(worse_by(value, others[0], better)) <= bound


def separated(a: dict, b: dict, better: str) -> bool:
    """Every round of B reads worse than every round of A."""
    if better == "lower":
        return min(b["rounds"]) > max(a["rounds"])
    return max(b["rounds"]) < min(a["rounds"])


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if worse_by(a["value"], b["value"], better) <= bound:
        return "same"
    steady = confirmed(a, better, bound) and confirmed(b, better, bound)
    return "worse" if steady or separated(a, b, better) else "unresolved"


def compare(a: dict, b: dict, benchmark: dict) -> List[dict]:
    """One row per (end-to-end metric, workload) the two results share."""
    rows = []
    for workload in benchmark["workloads"]:
        name = workload["name"]
        left = a["workloads"].get(name, {}).get("end_to_end", {})
        right = b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            if key not in left or key not in right:
                continue
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": left[key]["value"], "b": right[key]["value"],
                "worse_by": worse_by(
                    left[key]["value"], right[key]["value"], metric["better"]
                ),
                "bound": metric["bound"],
                "verdict": verdict(
                    left[key], right[key], metric["better"], metric["bound"]
                ),
            })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    print(f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B worse by':>11s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:14s} "
              f"{row['a']:12.4f} {row['b']:12.4f} "
              f"{row['worse_by']:+10.1%}  {row['bound']:5.0%}  {row['verdict']}"
              f"   [{row['unit']}, base A]")
    failed: Dict[str, int] = {}
    for side, result in (("A", a), ("B", b)):
        failed[side] = sum(w["failed"] for w in result["workloads"].values())
        if failed[side]:
            print(f"{side}: {failed[side]} failed operation(s) — its numbers "
                  "do not count", file=sys.stderr)
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
