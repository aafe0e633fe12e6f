"""Smoke tests executing every example at a small scale.

The examples double as living documentation (the README points at
them), so each one is imported and executed here with shrunken
parameters.  If an example drifts from the current API — adjacency
views turning into tuples, a renamed config knob — this fails in CI
instead of rotting silently.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.topology.generators import InternetTopologyConfig

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

#: Small-scale topology shared by the shrunken runs.
TINY = InternetTopologyConfig(seed=3, n_tier1=3, n_tier2=6, n_tier3=12, n_stub=40)


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_is_complete():
    names = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))
    assert names == [
        "disjoint_path_analysis",
        "failure_comparison",
        "link_flap_study",
        "partial_deployment",
        "quickstart",
    ]


def test_quickstart(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "STAMP converged" in out
    assert "transient problems" in out


def test_failure_comparison(capsys):
    _load("failure_comparison").main(instances=1, topology=TINY)
    out = capsys.readouterr().out
    assert "Mean ASes with transient problems" in out
    assert "data-plane disruption" in out


def test_link_flap_study(capsys):
    _load("link_flap_study").main(instances=1, topology=TINY, period=30.0, flaps=1)
    out = capsys.readouterr().out
    assert "episode-wide" in out
    assert "Per-phase attribution" in out
    assert "restore #0" in out


def test_disjoint_path_analysis(capsys):
    _load("disjoint_path_analysis").main(config=TINY)
    out = capsys.readouterr().out
    assert "Phi over" in out
    assert "Intelligent origin selection" in out


def test_partial_deployment(capsys):
    _load("partial_deployment").main(config=TINY, trial_counts=(4,))
    out = capsys.readouterr().out
    assert "Full deployment" in out
    assert "Tier-1-only deployment" in out


@pytest.mark.parametrize(
    "name",
    ["quickstart", "failure_comparison", "link_flap_study",
     "disjoint_path_analysis", "partial_deployment"],
)
def test_examples_have_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None))
