"""The traced pass, run as a child: install wrappers, run, write spans.

Two modes, both with every wrapper of ``bench.tracing.TARGETS``
installed before the run and removed after it:

``cli -- <argv>``
    calls ``repro.cli.main(argv)`` — the same argv the untraced rounds
    hand to ``python -m repro.cli``;
``service``
    drives an in-process ``CampaignService`` through
    ``submit``/``status``/``result`` with the same session sequence the
    HTTP rounds use, then restarts it over the same journal and ledger.

Writes one JSON document to ``--out``: the spans and the statistics
the campaigns produced (``mean_*`` per plane, digested by the parent);
then, to ``--out`` + ``.done``, the clock as the script ends — what
follows until the parent reaps the child is interpreter teardown.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import service_load, tracing  # noqa: E402


def campaign_statistics(spans) -> list:
    """The full per-plane statistics of every campaign of the pass."""
    from repro.experiments.figures import FailureFigureData

    statistics = []
    for span in spans:
        if span.name != "experiments.campaign" or span.payload is None:
            continue
        data = FailureFigureData(scenario_kind="", runs=span.payload.runs)
        statistics.append({
            "mean_affected": data.mean_affected(),
            "mean_convergence_time": data.mean_convergence_time(),
            "mean_updates": data.mean_updates(),
            "mean_initial_updates": data.mean_initial_updates(),
            "mean_disruption": data.mean_disruption(),
        })
    return statistics


def _run_cli(argv) -> int:
    import repro.cli

    return repro.cli.main(argv)


def _run_service(args) -> int:
    from repro.service.app import CampaignService, ServiceConfig

    state = Path(args.state)
    config = ServiceConfig(
        journal_path=state / "journal.jsonl",
        ledger_path=state / "ledger.jsonl",
        workers=1, max_concurrent=2,
    )
    service = CampaignService(config)
    service.start()
    logs = [service_load.ClientLog() for _ in range(args.clients)]
    try:
        client = service_load.InprocClient(service)
        for first, last in service_load.phase_bounds(args.sessions, args.phases):
            service_load.run_phase(client, args.seed, logs, first, last)
    finally:
        service.begin_shutdown()
        clean = service.drain(timeout=60)
    # The restart: journal replay over everything the first lifetime wrote.
    restarted = CampaignService(config)
    listed = len(restarted.list_campaigns())
    restarted.begin_shutdown()
    restarted.drain(timeout=60)
    campaigns = sum(len(log.results) for log in logs)
    failed = sum(log.failed for log in logs)
    for log in logs:
        for error in log.errors:
            print(f"traced service pass: {error}", file=sys.stderr)
    print(service_load.results_digest(logs))
    return 0 if clean and failed == 0 and listed == campaigns else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.perf_counter() at spawn")
    parser.add_argument("--out", required=True)
    modes = parser.add_subparsers(dest="mode", required=True)
    cli = modes.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    service = modes.add_parser("service")
    service.add_argument("--state", required=True)
    service.add_argument("--seed", type=int, required=True)
    service.add_argument("--clients", type=int, required=True)
    service.add_argument("--sessions", type=int, required=True)
    service.add_argument("--phases", type=int, required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    # Interpreter start, imports and wrapper installation: the cli
    # layer's start-up, on the parent's clock (perf_counter is
    # CLOCK_MONOTONIC, one clock for every process on the host).
    tracer.add("cli.startup", args.spawned_at, time.perf_counter())
    try:
        if args.mode == "cli":
            argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
            status = _run_cli(argv)
        else:
            status = _run_service(args)
    finally:
        tracing.remove(installed)
    sys.stdout.flush()
    document = {
        "finished_at": time.perf_counter(),
        "spans": [span.to_json() for span in tracer.spans],
        "statistics": campaign_statistics(tracer.spans),
    }
    Path(args.out).write_text(json.dumps(document))
    Path(args.out + ".done").write_text(repr(time.perf_counter()))
    return status


if __name__ == "__main__":
    sys.exit(main())
