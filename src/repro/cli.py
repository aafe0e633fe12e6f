"""Command-line interface: regenerate the paper's experiments.

Campaign options (``--instances``, ``--workers``, ``--ledger``, the
tier sizes, ...) are global: they go *before* the subcommand.  Usage
examples::

    repro-stamp fig1                  # Phi CDF summary
    repro-stamp --instances 10 fig2   # single link failure comparison
    repro-stamp fig3a
    repro-stamp fig3b
    repro-stamp node-failure
    repro-stamp flap --period 40 --flaps 2   # flapping-link campaign
    repro-stamp deployment
    repro-stamp overhead
    repro-stamp delay
    repro-stamp topology --out as_graph.txt

    repro-stamp serve --ledger results.jsonl      # campaign daemon
    repro-stamp serve --ledger results.jsonl --max-concurrent 4
    repro-stamp ledger stats results.jsonl
    repro-stamp ledger compact results.jsonl --max-bytes 10000000
    repro-stamp ledger merge merged.jsonl a.jsonl b.jsonl
    repro-stamp journal stats results.jsonl.journal
    repro-stamp journal compact results.jsonl.journal
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

# Only what the parser needs, and the two topology entry points, which
# the commands below must reach as *this module's* globals (that is
# where bench/tracing.py wraps them).  Everything a command runs it
# imports when dispatched: `--help`, `topology` and `ledger stats` load
# no simulator, no pool and no HTTP stack.
from repro.errors import ConfigurationError, LedgerMergeError, ParseError
from repro.experiments.scenarios import CAMPAIGNS
from repro.topology.caida import load_caida
from repro.topology.generators import InternetTopologyConfig, generate_internet_topology


class _Refused(Exception):
    """The command line asks for what cannot be run: :func:`main`
    reports it in one line and exits 2, before any unit ran."""


def _load_topology(args: argparse.Namespace):
    """The real topology requested with ``--topology-file``, or None.

    Loads CAIDA AS-relationship text (the format ``repro-stamp
    topology --out`` writes is the same serial-1 convention), runs the
    structural validation pass, and warns — without refusing — when
    the file violates the paper's idealizations: real AS graphs
    routinely do, and the experiments still run on them.
    """
    if getattr(args, "topology_file", None) is None:
        return None
    try:
        report = load_caida(args.topology_file, validate=True)
    except (OSError, ParseError) as exc:
        raise _Refused(exc) from exc
    print(
        f"loaded {args.topology_file}: {report.summary()}", file=sys.stderr
    )
    if report.validation is not None and not report.validation.ok:
        print(
            "warning: topology violates structural assumptions; "
            "results may not match the paper's idealized model",
            file=sys.stderr,
        )
    return report.graph


def _topology_config(args: argparse.Namespace) -> InternetTopologyConfig:
    return InternetTopologyConfig(
        seed=args.seed,
        n_tier1=args.tier1,
        n_tier2=args.tier2,
        n_tier3=args.tier3,
        n_stub=args.stubs,
    )


def _build_config(args: argparse.Namespace):
    from repro.experiments.runner import ExperimentConfig

    return ExperimentConfig(
        seed=args.seed,
        topology=_topology_config(args),
        n_instances=args.instances,
        workers=args.workers,
        retries=args.retries,
        unit_timeout=args.unit_timeout,
        ledger_path=args.ledger,
    )


def _print_failure(title: str, data) -> None:
    from repro.experiments.reporting import ascii_bar_chart, format_failure_report
    from repro.experiments.runner import PROTOCOL_LABELS

    measured = {
        PROTOCOL_LABELS[p]: v for p, v in data.mean_affected().items()
    }
    print(ascii_bar_chart(measured, title=title, unit=" ASes"))
    report = format_failure_report(getattr(data, "failures", ()))
    if report:
        print()
        print(report)


def cmd_fig1(args) -> int:
    from repro.experiments.figures import fig1_phi_cdf
    from repro.experiments.reporting import cdf_sparkline, format_table

    data = fig1_phi_cdf(_build_config(args), graph=_load_topology(args))
    print(
        format_table(
            ["quantity", "paper", "measured"],
            [
                ("mean Phi", "0.92", f"{data.mean_phi:.3f}"),
                ("fraction <= 0.7", "< 0.10", f"{data.fraction_below_070:.3f}"),
                ("fraction > 0.9", "> 0.75", f"{data.fraction_above_090:.3f}"),
            ],
        )
    )
    print(f"CDF: |{cdf_sparkline(data.cdf)}|")
    return 0


def cmd_campaign(args) -> int:
    """Every :data:`CAMPAIGNS` subcommand: run the grid, chart it."""
    from repro.experiments.figures import run_campaign
    from repro.experiments.reporting import format_table
    from repro.experiments.runner import PROTOCOL_LABELS

    kind = CAMPAIGNS[args.command]
    params = {name: getattr(args, name) for name, _ in kind.params}
    try:
        data = run_campaign(
            args.command, _build_config(args), graph=_load_topology(args),
            **params,
        )
    except ConfigurationError as exc:  # the builder refuses its keywords
        raise _Refused(exc) from exc
    _print_failure(kind.title.format(**params), data)
    if kind.phase_legend is not None:
        print()
        by_phase = data.mean_affected_by_phase()
        headers = ["protocol"] + [
            f"phase {k}" for k in range(data.n_phases())
        ]
        rows = [
            [PROTOCOL_LABELS[p]] + [f"{v:.1f}" for v in values]
            for p, values in by_phase.items()
        ]
        print("Mean affected ASes attributable to each phase "
              f"({kind.phase_legend}):")
        print(format_table(headers, rows))
    return 0


def cmd_intelligent(args) -> int:
    from repro.experiments.figures import sec61_intelligent_selection

    data = sec61_intelligent_selection(_build_config(args), graph=_load_topology(args))
    print(f"mean Phi, random selection     : {data.mean_phi_random:.3f}")
    print(f"mean Phi, intelligent selection: {data.mean_phi_intelligent:.3f}")
    return 0


def cmd_deployment(args) -> int:
    from repro.experiments.figures import sec63_partial_deployment

    data = sec63_partial_deployment(_build_config(args), graph=_load_topology(args))
    print(f"tier-1-only deployment fraction: {data.tier1_only_fraction:.3f} "
          f"(paper: ~0.75)")
    print(f"full deployment fraction       : {data.full_deployment_fraction:.3f}")
    return 0


def cmd_overhead(args) -> int:
    from repro.experiments.figures import sec63_message_overhead

    data = sec63_message_overhead(_build_config(args), graph=_load_topology(args))
    print(f"initial convergence: BGP {data.mean_initial_updates_bgp:.0f} vs "
          f"STAMP {data.mean_initial_updates_stamp:.0f} updates "
          f"(ratio {data.initial_ratio:.2f}, paper < 2)")
    print(f"failure episode    : BGP {data.mean_episode_updates_bgp:.0f} vs "
          f"STAMP {data.mean_episode_updates_stamp:.0f} updates "
          f"(ratio {data.episode_ratio:.2f})")
    return 0


def cmd_delay(args) -> int:
    from repro.experiments.figures import sec63_convergence_delay

    data = sec63_convergence_delay(_build_config(args), graph=_load_topology(args))
    print(f"control-plane quiescence: BGP {data.mean_seconds_bgp:.1f}s, "
          f"STAMP {data.mean_seconds_stamp:.1f}s")
    print(f"data-plane disruption   : BGP {data.mean_disruption_bgp:.2f}s, "
          f"STAMP {data.mean_disruption_stamp:.2f}s")
    return 0


def cmd_topology(args) -> int:
    from repro.topology.serialization import save_graph

    graph, tiers = generate_internet_topology(_topology_config(args))
    save_graph(graph, args.out)
    print(f"wrote {graph} to {args.out} "
          f"(tier-1 clique: {graph.tier1s()})")
    return 0


def cmd_serve(args) -> int:
    # All of it, before the socket is bound: the app's module-level
    # imports are the whole execution stack, so no campaign's first
    # request pays for an import.
    from repro.service.app import ServiceConfig, run_service
    from repro.service.spec import ServiceLimits

    journal = args.journal or f"{args.serve_ledger}.journal"
    # The flag wins over the environment; the environment keeps the
    # secret out of `ps` output on shared machines.
    token = args.auth_token or os.environ.get("REPRO_SERVICE_TOKEN") or None
    config = ServiceConfig(
        journal_path=journal,
        ledger_path=args.serve_ledger,
        workers=args.workers,
        max_queue=args.max_queue,
        max_concurrent=args.max_concurrent,
        journal_max_bytes=args.journal_max_bytes,
        auth_token=token,
        limits=ServiceLimits(
            max_instances=args.max_instances,
            max_total_ases=args.max_total_ases,
            max_retries=args.max_retries,
            max_unit_timeout=args.max_unit_timeout,
            max_workers=args.max_workers,
        ),
    )
    return run_service(args.host, args.port, config)


def _missing_log(what: str, path: str) -> bool:
    """Whether ``stats``/``compact`` must refuse ``path``: opening a log
    creates it, and a mistyped path is not an empty log."""
    if os.path.exists(path):
        return False
    print(f"error: {what} does not exist: {path}", file=sys.stderr)
    return True


def cmd_ledger(args) -> int:
    from repro.experiments.ledger import ResultLedger, merge_ledgers

    if args.ledger_command != "merge" and _missing_log("ledger", args.path):
        return 1
    if args.ledger_command == "stats":
        with ResultLedger(args.path) as ledger:
            stats = ledger.stats()
        for key in (
            "path", "records", "file_bytes", "live_bytes",
            "dropped_records", "salt", "oldest_ts", "newest_ts",
        ):
            print(f"{key:15s} {stats[key]}")
        return 0
    if args.ledger_command == "compact":
        with ResultLedger(args.path) as ledger:
            evicted = ledger.compact(
                max_age_seconds=args.max_age_seconds,
                max_bytes=args.max_bytes,
            )
            remaining = len(ledger)
        print(f"evicted {evicted} record(s); {remaining} remain")
        return 0
    # merge
    try:
        summary = merge_ledgers(args.out, args.inputs)
    except LedgerMergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"merged {summary['records']} record(s) into {args.out} "
        f"({summary['duplicates']} duplicate key(s) resolved "
        f"last-write-wins)"
    )
    return 0


def cmd_journal(args) -> int:
    from repro.service.journal import CampaignJournal

    if _missing_log("journal", args.path):
        return 1
    if args.journal_command == "stats":
        with CampaignJournal(args.path) as journal:
            stats = journal.stats()
        for key in (
            "path", "records", "file_bytes", "snapshots",
            "campaigns", "active_campaigns", "dropped_records",
        ):
            print(f"{key:17s} {stats[key]}")
        return 0
    # compact
    with CampaignJournal(args.path) as journal:
        summary = journal.compact(max_age_seconds=args.max_age_seconds)
    print(
        f"compacted {summary['bytes_before']} -> "
        f"{summary['bytes_after']} bytes; {summary['campaigns']} "
        f"campaign(s) kept, {summary['evicted']} evicted"
    )
    return 0


_COMMANDS = {
    "fig1": cmd_fig1,
    **dict.fromkeys(CAMPAIGNS, cmd_campaign),
    "intelligent": cmd_intelligent,
    "deployment": cmd_deployment,
    "overhead": cmd_overhead,
    "delay": cmd_delay,
    "topology": cmd_topology,
    "serve": cmd_serve,
    "ledger": cmd_ledger,
    "journal": cmd_journal,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stamp",
        description="Reproduce the STAMP paper's experiments (ReArch'08).",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--instances", type=int, default=10,
        help="simulation instances per failure figure (paper: 100)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the (instance, protocol) fan-out; "
             "results are identical for any worker count",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts after a unit's first failure (crashed or "
             "hung simulations are retried, then reported; default 1)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit; a hung unit is killed, "
             "retried, and reported if it keeps hanging (default: none)",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="crash-safe result ledger: completed units are persisted "
             "as they finish and never recomputed, so an interrupted "
             "campaign restarted with the same ledger resumes where it "
             "left off (see docs/robustness.md)",
    )
    parser.add_argument(
        "--topology-file", default=None, metavar="PATH",
        help="run on a real topology: a CAIDA AS-relationship file "
             "('provider|customer|-1' / 'a|b|0', '#' comments; the "
             "format 'repro-stamp topology --out' writes) instead of "
             "the synthetic generator — the --tier*/--stubs knobs are "
             "then ignored",
    )
    sizes = InternetTopologyConfig()
    for flag, default, label in (
        ("--tier1", sizes.n_tier1, "tier-1"),
        ("--tier2", sizes.n_tier2, "tier-2"),
        ("--tier3", sizes.n_tier3, "tier-3"),
        ("--stubs", sizes.n_stub, "stub"),
    ):
        parser.add_argument(
            flag, type=int, default=default, help=f"{label} ASes"
        )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = sub.add_parser(name)
        if name == "topology":
            command.add_argument("--out", default="as_graph.txt")
        if name == "serve":
            command.add_argument(
                "--host", default="127.0.0.1", help="bind address"
            )
            command.add_argument(
                "--port", type=int, default=8421,
                help="bind port (0 picks a free one; the daemon prints "
                     "the bound address either way)",
            )
            command.add_argument(
                "--ledger", dest="serve_ledger", required=True,
                metavar="PATH",
                help="shared crash-safe result ledger all campaigns "
                     "read and write (resume lives here)",
            )
            command.add_argument(
                "--journal", default=None, metavar="PATH",
                help="campaign journal path "
                     "(default: <ledger>.journal)",
            )
            command.add_argument(
                "--max-queue", type=int, default=8,
                help="campaigns allowed to wait; beyond this "
                     "submissions get 429 + Retry-After",
            )
            command.add_argument(
                "--max-concurrent", type=int, default=2,
                help="executor lanes: campaigns running at once, all "
                     "sharing the --workers slot budget (results are "
                     "identical for any lane count)",
            )
            command.add_argument(
                "--journal-max-bytes", type=int, default=None,
                metavar="BYTES",
                help="rotate the campaign journal once it grows past "
                     "this (atomic snapshot+tail rewrite; default: "
                     "never)",
            )
            command.add_argument(
                "--auth-token", default=None, metavar="TOKEN",
                help="require 'Authorization: Bearer TOKEN' on "
                     "mutating endpoints (env REPRO_SERVICE_TOKEN "
                     "also works; /healthz and /readyz stay open)",
            )
            command.add_argument(
                "--max-workers", type=int, default=8,
                help="ceiling a campaign's requested workers clamp to",
            )
            command.add_argument(
                "--max-instances", type=int, default=1000,
                help="per-campaign instance ceiling (400 beyond it)",
            )
            command.add_argument(
                "--max-total-ases", type=int, default=20000,
                help="per-campaign topology size ceiling",
            )
            command.add_argument(
                "--max-retries", type=int, default=5,
                help="ceiling a campaign's requested retries clamp to",
            )
            command.add_argument(
                "--max-unit-timeout", type=float, default=900.0,
                help="ceiling a campaign's unit_timeout clamps to",
            )
        if name == "ledger":
            ledger_sub = command.add_subparsers(
                dest="ledger_command", required=True
            )
            stats = ledger_sub.add_parser(
                "stats", help="record counts, bytes, salt, timestamps"
            )
            stats.add_argument("path")
            compact = ledger_sub.add_parser(
                "compact",
                help="rewrite atomically, dropping dead/expired records",
            )
            compact.add_argument("path")
            compact.add_argument(
                "--max-age-seconds", type=float, default=None,
                help="evict records older than this",
            )
            compact.add_argument(
                "--max-bytes", type=int, default=None,
                help="evict oldest records until the file fits",
            )
            merge = ledger_sub.add_parser(
                "merge",
                help="combine ledgers from several machines "
                     "(last-write-wins; refuses salt/version mismatches)",
            )
            merge.add_argument("out")
            merge.add_argument("inputs", nargs="+", metavar="in")
        if name == "journal":
            journal_sub = command.add_subparsers(
                dest="journal_command", required=True
            )
            jstats = journal_sub.add_parser(
                "stats",
                help="record/snapshot/campaign counts and file size",
            )
            jstats.add_argument("path")
            jcompact = journal_sub.add_parser(
                "compact",
                help="rewrite atomically as one snapshot record "
                     "(replay reads snapshot+tail identically)",
            )
            jcompact.add_argument("path")
            jcompact.add_argument(
                "--max-age-seconds", type=float, default=None,
                help="also evict finished campaigns older than this",
            )
        if name in CAMPAIGNS:
            defaults = CAMPAIGNS[name].defaults()
            for param, text in CAMPAIGNS[name].params:
                default = defaults[param]
                command.add_argument(
                    f"--{param}", type=type(default), default=default,
                    help=text.format(default=default),
                )
    return parser


#: Built with the module: constructing ~20 subcommand parsers is a
#: constant few milliseconds of start-up that belongs to no command.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Refused as exc:
        print(f"repro-stamp {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
