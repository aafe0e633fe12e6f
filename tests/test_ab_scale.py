"""``benchmarks/ab_scale.py`` cannot rot: tier-1 runs it at its smallest.

The tool decides whether a mechanism is kept or deleted (ROADMAP item
4), so the two things a decision rests on are checked here: it runs
every plane of two trees to equal digests, and it refuses — exit code
1 — to report timings for two trees that computed different results.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
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


def test_a_child_reports_its_peak_rss_and_the_summary_prints_it():
    child = subprocess.run(
        [sys.executable, str(TOOL), "--child", "--scale", "0", "--kind",
         "fig2", "--seed", "0", "--planes", "rbgp-norci", "rbgp"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"cpu_s", "digest", "peak_rss_mb"}
    # A live interpreter with the package loaded: more than 5 MB, and
    # far less than the 62-AS graph could ever need.
    assert 5 < result["peak_rss_mb"] < 1000
    done = _ab(SRC, SRC, "--planes", "bgp")
    assert done.returncode == 0, done.stdout + done.stderr
    (summary,) = [
        line for line in done.stdout.splitlines() if "B faster in" in line
    ]
    assert re.search(r"peak RSS median A \d+\.\d B \d+\.\d MB$", summary)


def test_a_multi_phase_kind_runs_on_every_plane():
    done = _ab(SRC, SRC, "--kind", "flap3")
    assert done.returncode == 0, done.stdout + done.stderr
    runs = [line for line in done.stdout.splitlines() if line.startswith("pass ")]
    assert len(runs) == 3 and all(line.endswith(" equal") for line in runs)
    assert "kind=flap3" in done.stdout


def test_an_unknown_kind_is_refused():
    done = _ab(SRC, SRC, "--kind", "storm")
    assert done.returncode == 2
    assert "expected fig2 or flapN" in done.stderr


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


def test_instances_hold_every_run_and_attribute_what_is_live():
    done = _ab(SRC, SRC, "--kind", "flap2", "--planes", "bgp", "--instances", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "instances=2" in lines[0]
    assert lines[1].endswith(" equal")
    start = lines.index("# live at the end of the last run, bgp (tracemalloc MB, A | B)")
    attribution = lines[start + 1:]
    layers = [line.split()[0] for line in attribution if "|" in line]
    assert "repro.analysis" in layers and layers[-1] == "total"
    sites = [line.split() for line in attribution if line.startswith("  A ")]
    assert len(sites) == 8 and all(float(site[-1]) >= 0 for site in sites)


def test_a_non_positive_instance_count_is_refused():
    done = _ab(SRC, SRC, "--instances", "0")
    assert done.returncode == 2
    assert "expected a positive integer" in done.stderr


def test_the_paper_scale_is_a_choice_it_accepts():
    """``--scale 45`` is the paper's 26,920 ASes; parsed, never run."""
    done = subprocess.run(
        [sys.executable, str(TOOL), "--scale", "45"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--a and --b are required" in done.stderr
    assert "invalid choice" not in done.stderr
    spec = importlib.util.spec_from_file_location("ab_scale", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tiers = tool.SCALES[45]
    assert (tiers["n_tier1"], tiers["n_tier2"], tiers["n_tier3"], tiers["n_stub"]) == (
        20, 2100, 5300, 19500
    )
    assert sum(tiers[name] for name in tiers if name.startswith("n_")) == 26920
