"""``benchmarks/ab_scale.py`` cannot rot: tier-1 runs it at its smallest.

The tool decides whether a mechanism is kept or deleted (ROADMAP item
4), so the two things a decision rests on are checked here: it runs
every plane of two trees to equal digests, and it refuses — exit code
1 — to report timings for two trees that computed different results.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "benchmarks" / "ab_scale.py"
SRC = REPO / "src"


def _ab(a, b, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), "--a", str(a), "--b", str(b),
         "--scale", "0", "--passes", "1", *extra],
        capture_output=True, text=True, timeout=300,
    )


def test_the_working_tree_against_itself_agrees_on_every_plane():
    done = _ab(SRC, SRC)
    assert done.returncode == 0, done.stdout + done.stderr
    runs = [line for line in done.stdout.splitlines() if line.startswith("pass ")]
    assert [line.split()[2] for line in runs] == ["bgp", "rbgp-norci+rbgp", "stamp"]
    assert all(line.endswith(" equal") for line in runs)
    assert done.stdout.count("B faster in") == 3


def test_a_maintenance_window_runs_on_every_plane():
    done = _ab(SRC, SRC, "--kind", "maintenance")
    assert done.returncode == 0, done.stdout + done.stderr
    runs = [line for line in done.stdout.splitlines() if line.startswith("pass ")]
    assert len(runs) == 3 and all(line.endswith(" equal") for line in runs)
    assert "kind=maintenance" in done.stdout


def test_an_unknown_kind_is_refused():
    done = _ab(SRC, SRC, "--kind", "storm")
    assert done.returncode == 2
    assert "expected fig2, maintenance, outage or flapN" in done.stderr


def test_a_tree_that_computes_something_else_is_refused(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    timers = other / "repro" / "sim" / "timers.py"
    text = timers.read_text()
    assert "base: float = 30.0" in text
    timers.write_text(text.replace("base: float = 30.0", "base: float = 20.0"))
    done = _ab(SRC, other, "--kind", "flap2", "--planes", "bgp")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "DIFFERS" in done.stdout
