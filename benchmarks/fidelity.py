"""The paper's claims as one table, checked against this reproduction.

    PYTHONPATH=src python benchmarks/fidelity.py          # 10 instances
    PYTHONPATH=src python benchmarks/fidelity.py --write  # 100, docs/fidelity.md

A row of :data:`CLAIMS` names its figure (a :data:`FIGURES` key), the
paper's number, its bound (an expression over the figure's names) and
the statistic printed beside the paper's number (an f-string over the
same names).  Exits 1 if any row fails.
"""

import argparse
from collections import namedtuple
import datetime
import os
import re
import sys
from pathlib import Path

from repro.experiments import figures
from repro.experiments.runner import ExperimentConfig
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _ablation(topology):
    """Figure 2 on a graph of its own: campaign seed 1, 6 instances."""
    config = ExperimentConfig(seed=1, topology=topology, n_instances=6)
    return lambda _config, graph: figures.fig2_single_link_failure(config)


#: Where the paper reports a figure -> the function that measures it.
FIGURES = {
    "Figure 1": figures.fig1_phi_cdf,
    "Figure 2": figures.fig2_single_link_failure,
    "Figure 3(a)": figures.fig3a_two_links_distinct_as,
    "Figure 3(b)": figures.fig3b_two_links_same_as,
    "§6.1": figures.sec61_intelligent_selection,
    "§6.2.2": figures.node_failure_comparison,
    "§6.3 delay": figures.sec63_convergence_delay,
    "§6.3 overhead": figures.sec63_message_overhead,
    "§6.3 deployment": figures.sec63_partial_deployment,
    "Figure 2, half size": _ablation(InternetTopologyConfig(
        seed=3, n_tier1=5, n_tier2=24, n_tier3=60, n_stub=220)),
    "Figure 2, full size": _ablation(InternetTopologyConfig(seed=3)),
}


#: Failure rows: mean affected ASes per plane, in the paper's bar order.
_BARS = "{bgp:.1f} / {norci:.1f} / {rbgp:.1f} / {stamp:.1f}"
_STAMP = " (STAMP/BGP {stamp / bgp:.3f})"
_RBGP = " (R-BGP/BGP {rbgp / bgp:.3f})"
_FIG2 = "6604 / 2097 / 0 / 357"
_FIG3A = "10314 / 4242 / 861 / 845"
_FIG3B = "12071 / 3803 / 761 / 366"

Claim = namedtuple("Claim", "id figure claim paper bound statistic", defaults=(_BARS,))

CLAIMS = (
    Claim("fig1-mean", "Figure 1", "Mean Φ is about 0.92", "0.92",
          "0.85 <= mean_phi <= 1.0", "{mean_phi:.3f}"),
    Claim("fig1-low", "Figure 1", "Fewer than 10% of destinations have Φ ≤ 0.7",
          "< 0.10", "fraction_below_070 < 0.10", "{fraction_below_070:.3f}"),
    Claim("fig1-high", "Figure 1", "More than 75% of destinations have Φ > 0.9",
          "> 0.75", "fraction_above_090 > 0.75", "{fraction_above_090:.3f}"),
    Claim("fig2-order", "Figure 2", "BGP > R-BGP without RCI > STAMP",
          _FIG2 + " (STAMP/BGP 0.054)", "bgp > norci > stamp", _BARS + _STAMP),
    Claim("fig2-rbgp-stamp", "Figure 2", "R-BGP ≤ STAMP", _FIG2, "rbgp <= stamp + 1e-9"),
    Claim("fig2-rbgp-zero", "Figure 2", "R-BGP leaves no AS affected",
          _FIG2 + " (R-BGP/BGP 0.000)", "rbgp < 0.02 * max(bgp, 1.0)", _BARS + _RBGP),
    Claim("fig3a-bgp", "Figure 3(a)", "BGP > R-BGP without RCI", _FIG3A, "bgp > norci"),
    Claim("fig3a-rci", "Figure 3(a)", "R-BGP without RCI > R-BGP", _FIG3A, "norci > rbgp"),
    Claim("fig3a-stamp", "Figure 3(a)", "STAMP is an order of magnitude below BGP",
          _FIG3A + " (STAMP/BGP 0.082)", "stamp < 0.2 * bgp", _BARS + _STAMP),
    Claim("fig3a-rbgp", "Figure 3(a)", "R-BGP is an order of magnitude below BGP",
          _FIG3A + " (R-BGP/BGP 0.083)", "rbgp < 0.2 * bgp", _BARS + _RBGP),
    Claim("fig3b-bgp", "Figure 3(b)", "BGP > R-BGP without RCI", _FIG3B, "bgp > norci"),
    Claim("fig3b-stamp", "Figure 3(b)", "STAMP is an order of magnitude below BGP",
          _FIG3B + " (STAMP/BGP 0.030)", "stamp < 0.2 * bgp", _BARS + _STAMP),
    Claim("fig3b-one-event", "Figure 3(b)", "One event to STAMP: no worse than R-BGP",
          _FIG3B, "stamp <= rbgp + 0.05 * bgp"),
    Claim("sec61-intelligent", "§6.1", "Intelligent locked-blue selection raises Φ",
          "0.92 → 0.97", "mean_phi_intelligent >= mean_phi_random",
          "{mean_phi_random:.3f} → {mean_phi_intelligent:.3f}"),
    Claim("node-bgp", "§6.2.2", "BGP ≥ R-BGP without RCI", "(ordering)", "bgp >= norci"),
    Claim("node-stamp", "§6.2.2", "STAMP keeps its advantage",
          "(ordering)", "stamp < 0.25 * max(bgp, 1.0)", _BARS + _STAMP),
    Claim("delay", "§6.3 delay", "STAMP converges no slower than BGP", "STAMP faster",
          "mean_disruption_stamp <= mean_disruption_bgp + 1.0",
          "{mean_disruption_bgp:.2f} / {mean_disruption_stamp:.2f} s lost, "
          "{mean_seconds_bgp:.1f} / {mean_seconds_stamp:.1f} s to quiet"),
    Claim("overhead", "§6.3 overhead", "Two processes send fewer than twice BGP's updates",
          "< 2", "initial_ratio < 2.5",
          "{initial_ratio:.2f} initial ({mean_initial_updates_stamp:.0f} / "
          "{mean_initial_updates_bgp:.0f}), {episode_ratio:.2f} episode"),
    Claim("deployment", "§6.3 deployment", "Tier-1-only deployment protects ~75% of ASes",
          "~0.75", "0.5 <= tier1_only_fraction <= 1.0", "{tier1_only_fraction:.3f}"),
    Claim("deployment-full", "§6.3 deployment", "Full deployment protects at least as many",
          "-", "tier1_only_fraction <= full_deployment_fraction",
          "{tier1_only_fraction:.3f} ≤ {full_deployment_fraction:.3f}"),
    Claim("ablation-half-bgp", "Figure 2, half size", "BGP ≥ R-BGP without RCI",
          _FIG2, "bgp >= norci"),
    Claim("ablation-half-stamp", "Figure 2, half size", "R-BGP without RCI ≳ STAMP",
          _FIG2, "norci >= stamp - 0.05 * bgp"),
    Claim("ablation-half-rbgp", "Figure 2, half size", "R-BGP near zero",
          _FIG2, "rbgp < 0.05 * max(bgp, 1.0)"),
    Claim("ablation-full-bgp", "Figure 2, full size", "BGP ≥ R-BGP without RCI",
          _FIG2, "bgp >= norci"),
    Claim("ablation-full-stamp", "Figure 2, full size", "R-BGP without RCI ≳ STAMP",
          _FIG2, "norci >= stamp - 0.05 * bgp"),
    Claim("ablation-full-rbgp", "Figure 2, full size", "R-BGP near zero",
          _FIG2, "rbgp < 0.05 * max(bgp, 1.0)"),
)


def _names(result):
    """A figure's result as names: a failure campaign's mean affected
    ASes per plane, any other result's fields and properties."""
    if hasattr(result, "mean_affected"):
        return {
            "norci" if plane == "rbgp-norci" else plane: value
            for plane, value in result.mean_affected().items()
        }
    return {name: getattr(result, name) for name in dir(result) if name[0] != "_"}


def evaluate(instances):
    """Measure each figure once and check every row against it:
    ``(claim, measured statistic, holds)`` per row, in table order."""
    config = ExperimentConfig(seed=0, n_instances=instances)
    graph, _ = generate_internet_topology(config.topology)
    measured = {}
    verdicts = []
    for claim in CLAIMS:
        if claim.figure not in measured:
            measured[claim.figure] = _names(FIGURES[claim.figure](config, graph=graph))
        names = measured[claim.figure]
        statistic = eval("f" + repr(claim.statistic), {}, names)
        verdicts.append((claim, statistic, bool(eval(claim.bound, {}, names))))
    return verdicts


def _departures():
    """``(title, anchor)`` of each departure ``docs/architecture.md``
    documents in its departures section."""
    text = (DOCS / "architecture.md").read_text()
    section = text.split("## Where this reproduction departs from the paper")[1]
    titles = re.findall(r"^### (.*)$", section.split("\n## ")[0], re.M)
    return [(t, re.sub(r"[^\w\- ]", "", t.lower()).replace(" ", "-")) for t in titles]


def _rows(verdicts):
    """One Markdown table row per claim: what the doc holds and the
    script prints."""
    return [
        f"| `{claim.id}` | {claim.figure} | {claim.claim} | {claim.paper} "
        f"| {statistic} | `{claim.bound}` | {'PASS' if holds else 'FAIL'} |"
        for claim, statistic, holds in verdicts
    ]


def render(verdicts, instances):
    """``docs/fidelity.md``: the claims table, then the departures."""
    passed = sum(holds for _, _, holds in verdicts)
    return "\n".join([
        "# Fidelity: the paper's claims, measured",
        "",
        "Generated by `PYTHONPATH=src python benchmarks/fidelity.py --write` on "
        f"{datetime.date.today()}, on a host with {os.cpu_count()} CPUs.  Each figure "
        f"ran {instances} instances on the default 616-AS graph, campaign seed 0; the "
        "half- and full-size rows keep their own seed-3 graphs, seed 1 and 6 instances.  "
        "The paper measured a ~27k-AS RouteViews graph, so counts differ in scale.  "
        "Failure rows read BGP / R-BGP without RCI / R-BGP / STAMP mean affected ASes.  "
        f"{passed} of {len(verdicts)} rows pass.",
        "",
        "| Row | Where | Claim | Paper | Measured | Bound | Status |",
        "|---|---|---|---|---|---|---|",
        *_rows(verdicts),
        "",
        "Documented departures, in `docs/architecture.md`:",
        "",
        *(f"- [{title}](architecture.md#{anchor})" for title, anchor in _departures()),
    ]) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="run the paper's 100 instances and write docs/fidelity.md")
    instances = 100 if parser.parse_args().write else 10
    verdicts = evaluate(instances)
    print("\n".join(_rows(verdicts)))
    if instances == 100:
        (DOCS / "fidelity.md").write_text(render(verdicts, instances))
    return 0 if all(holds for _, _, holds in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
