"""Hot-path performance benchmarks (the repo's perf-regression suite).

Microbenchmarks for the four optimized layers — topology queries, the
BGP decision process, Φ analysis, transient-problem analysis — plus the
end-to-end Figure 2 experiment at topology scale 1.0 and 2.0.  Every
run writes ``BENCH_perf.json`` (machine-readable trajectory point) to
the working directory, so CI can archive one artifact per commit and
regressions show up as a broken series.

Scale knobs (environment variables):

* ``REPRO_BENCH_INSTANCES`` — instances for the end-to-end benches
  (default 6, the acceptance-criteria setting).
* ``REPRO_BENCH_SMOKE=1`` — shrink the end-to-end benches to a single
  instance for fast CI smoke runs.

Reference trajectory (this machine, 2026-07, default ~620-AS graph):
the pre-optimization seed ran ``fig2 scale=1.0 x6`` in ~32 s and
``phi_distribution`` in ~80 ms; the optimized tree runs them in ~3.5 s
(9x) and ~14 ms (5.8x).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.analysis.phi import _UPHILL_CACHE, phi_distribution
from repro.analysis.transient import (
    analyze_episode_transient_problems,
    analyze_transient_problems,
)
from repro.bgp.decision import best_route
from repro.experiments.figures import fig2_single_link_failure
from repro.experiments.ledger import ResultLedger
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import (
    ExperimentConfig,
    _StartSnapshot,
    build_network,
    collect_episode_segments,
)
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
)
from repro.types import EventType, normalize_link
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)

OUTPUT_PATH = Path(os.environ.get("REPRO_BENCH_PERF_OUT", "BENCH_perf.json"))


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _instances() -> int:
    if _smoke():
        return 1
    return int(os.environ.get("REPRO_BENCH_INSTANCES", "6"))


def _scaled_topology(scale: float) -> InternetTopologyConfig:
    base = InternetTopologyConfig()
    if scale == 1.0:
        return base
    return InternetTopologyConfig(
        seed=base.seed,
        n_tier1=max(2, round(base.n_tier1 * min(scale, 2.0))),
        n_tier2=round(base.n_tier2 * scale),
        n_tier3=round(base.n_tier3 * scale),
        n_stub=round(base.n_stub * scale),
    )


@pytest.fixture(scope="module")
def graph():
    graph, _ = generate_internet_topology(InternetTopologyConfig())
    return graph


@pytest.fixture(scope="session")
def perf_records():
    """Collects per-bench timings; writes BENCH_perf.json at session end."""
    records: dict = {}
    yield records
    if not records:
        return
    payload = {
        "meta": {
            "suite": "bench_perf_micro",
            "instances": _instances(),
            "smoke": _smoke(),
            "python": sys.version.split()[0],
            "cpus": multiprocessing.cpu_count(),
            "unix_time": round(time.time(), 3),
        },
        "benchmarks": records,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH.resolve()}")


def _record(perf_records, name, benchmark, **extra) -> None:
    stats = benchmark.stats.stats
    perf_records[name] = {
        "mean_seconds": stats.mean,
        "min_seconds": stats.min,
        "rounds": stats.rounds,
        **extra,
    }


# ----------------------------------------------------------------------
# Layer 1 — topology queries
# ----------------------------------------------------------------------


def test_graph_adjacency_queries(benchmark, graph, perf_records):
    """Steady-state adjacency views over every AS (the hot query mix)."""
    ases = graph.ases

    def run():
        total = 0
        for asn in ases:
            total += len(graph.providers(asn))
            total += len(graph.neighbors(asn))
            total += graph.is_tier1(asn)
            total += graph.is_multihomed(asn)
            total += graph.degree(asn)
        return total

    result = benchmark(run)
    assert result > 0
    _record(perf_records, "graph_adjacency_queries", benchmark, ases=len(ases))


def test_topology_build_csr(benchmark, perf_records):
    """Full graph build + CSR fold of the default topology.

    The cost a campaign pays once to turn raw links into the
    int-indexed CSR base (interning, insertion-order neighbor rows,
    sorted per-relationship rows) — the arrays every query view and
    shared-memory export slices from.
    """
    from repro.topology.graph import ASGraph

    source, _ = generate_internet_topology(InternetTopologyConfig())
    ases = source.ases
    c2p = source.c2p_links()
    p2p = source.p2p_links()

    def run():
        graph = ASGraph()
        for asn in ases:
            graph.add_as(asn)
        for customer, provider in c2p:
            graph.add_c2p(customer, provider)
        for a, b in p2p:
            graph.add_p2p(a, b)
        graph.csr_base()
        return len(graph)

    result = benchmark(run)
    assert result == len(source)
    _record(
        perf_records, "topology_build_csr", benchmark,
        ases=len(source), links=len(c2p) + len(p2p),
    )


def test_shared_memory_attach(benchmark, graph, perf_records):
    """Worker-side topology acquisition: attach-by-name + first probe.

    This is the per-worker (and per-worker-respawn) cost the
    shared-memory fan-out reduced from a full pickle round trip to an
    O(1)-in-topology-size segment map.
    """
    from repro.topology.shm import (
        attach_graph,
        share_graph,
        shared_memory_available,
    )

    if not shared_memory_available():
        pytest.skip("platform cannot create shared-memory segments")
    shared = share_graph(graph)
    try:
        def run():
            attached = attach_graph(shared.name)
            probe = attached.graph
            count = len(probe.neighbors(probe.ases[0]))
            del probe  # release the array views so close() can unmap
            attached.close()
            return count

        result = benchmark(run)
        assert result > 0
        _record(
            perf_records, "shared_memory_attach", benchmark,
            segment_bytes=shared.size,
        )
    finally:
        shared.destroy()


# ----------------------------------------------------------------------
# Layer 1.5 — event engine (one heap)
# ----------------------------------------------------------------------


def test_engine_timer_churn(benchmark, perf_records):
    """Cancel + re-arm churn against the engine's event heap.

    Every processed event cancels one armed timer 25-31 s out and arms
    a replacement, so the heap fills with tombstones that are only
    discarded when they reach the head: the engine's worst case, not
    its common one.  MRAI pacing does *not* produce this pattern — a
    pacer coalesces behind its armed timer and cancels only when a
    session drops or a router reboots (counted: 0-3 cancels per
    16-unit campaign grid).
    """
    from repro.sim.engine import Engine

    PEERS = 400
    EVENTS = 4000

    def run():
        engine = Engine(seed=1)
        armed: dict = {}

        def churn(i: int) -> None:
            slot = i % PEERS
            handle = armed.get(slot)
            if handle is not None:
                handle.cancel()
            armed[slot] = engine.schedule(
                25.0 + (i % 7), lambda: None
            )

        for i in range(EVENTS):
            engine.schedule(0.0005 * i, lambda i=i: churn(i))
        engine.run(until=0.0005 * EVENTS)
        return engine.events_processed

    result = benchmark(run)
    assert result == EVENTS
    _record(
        perf_records,
        "engine_timer_churn",
        benchmark,
        events=EVENTS,
        peers=PEERS,
    )


# ----------------------------------------------------------------------
# Layer 2 — decision process
# ----------------------------------------------------------------------


def test_decision_best_route(benchmark, graph, perf_records):
    """best_route over real converged Adj-RIB-In candidate sets."""
    destination = graph.ases[len(graph.ases) // 2]
    network, _ = build_network("bgp", graph, destination, seed=0)
    network.start()
    rib_sets = []
    for asn, speaker in network.speakers.items():
        routes = speaker.adj_rib_in.routes()
        if len(routes) >= 2:
            rib_sets.append((asn, routes, speaker.config.prefer_locked))
    assert rib_sets

    def run():
        picked = 0
        for asn, routes, prefer_locked in rib_sets:
            if best_route(graph, asn, routes, prefer_locked=prefer_locked):
                picked += 1
        return picked

    result = benchmark(run)
    assert result > 0
    _record(
        perf_records, "decision_best_route", benchmark, rib_sets=len(rib_sets)
    )


# ----------------------------------------------------------------------
# Layer 3 — analysis
# ----------------------------------------------------------------------


def test_phi_distribution_all_destinations(benchmark, graph, perf_records):
    """Φ over every destination, cold (Figure 1's underlying data).

    The cross-call UphillView cache is cleared per round so the series
    stays comparable with pre-cache trajectory points.
    """

    def run():
        _UPHILL_CACHE.clear()
        return phi_distribution(graph)

    results = benchmark(run)
    assert len(results) == len(graph.ases)
    _record(
        perf_records,
        "phi_distribution",
        benchmark,
        destinations=len(graph.ases),
    )


def test_phi_distribution_warm_cache(benchmark, graph, perf_records):
    """Φ over every destination with the cross-call cache warm.

    This is what the second and later Φ entry points of one figure
    actually pay (fig1 + sec6.1 share every anchor's view).
    """
    phi_distribution(graph)  # warm
    results = benchmark(phi_distribution, graph)
    assert len(results) == len(graph.ases)
    _record(
        perf_records,
        "phi_distribution_warm",
        benchmark,
        destinations=len(graph.ases),
    )


@pytest.mark.parametrize("protocol", ["bgp", "rbgp", "rbgp-norci", "stamp"])
def test_transient_analysis(benchmark, graph, perf_records, protocol):
    """Trace replay + classification for one single-link-failure run."""
    episode = single_provider_link_failure(graph, random.Random("bench:0"))
    links = [event.link for _, event in episode.steps]
    network, plane = build_network(protocol, graph, episode.destination, seed=0)
    network.start()
    initial_state = network.forwarding_state()
    for a, b in links:
        network.fail_link(a, b)
    network.run_to_convergence()
    failed_links = frozenset(normalize_link(a, b) for a, b in links)

    report = benchmark(
        analyze_transient_problems,
        network.trace,
        initial_state,
        plane,
        graph.ases,
        failed_links=failed_links,
    )
    assert report.eligible
    _record(
        perf_records,
        f"transient_analysis_{protocol}",
        benchmark,
        trace_changes=len(network.trace.changes),
    )


def test_transient_analysis_stamp_episode(benchmark, graph, perf_records):
    """Multi-phase episode analysis over a STAMP flap workload.

    Exercises the failure-set patch and the forced boundary rescan at
    every phase boundary — the costs the single-event
    ``transient_analysis_stamp`` entry never sees.
    """
    episode = link_flap_episode(
        graph, random.Random("bench:ep"), period=25.0, flaps=2
    )
    network, plane = build_network("stamp", graph, episode.destination, seed=0)
    for a, b in episode.pre_failed_links:
        network.transport.fail_link(a, b)
    network.start()
    segments, initial_state, _ = collect_episode_segments(network, episode)

    report = benchmark(
        analyze_episode_transient_problems,
        segments, initial_state, plane, graph.ases,
    )
    assert report.overall.eligible
    _record(
        perf_records,
        "transient_analysis_stamp_episode",
        benchmark,
        phases=len(segments),
        trace_changes=sum(len(s.trace.changes) for s in segments),
    )


def _storm(graph, protocol):
    """A started network and the long-horizon flap storm to drive it
    through: 512 phases two simulated seconds apart (32 at smoke)."""
    flaps = 16 if _smoke() else 256
    episode = link_flap_episode(
        graph, random.Random("bench:ep-long"), period=2.0, flaps=flaps
    )
    network, plane = build_network(protocol, graph, episode.destination, seed=0)
    for a, b in episode.pre_failed_links:
        network.transport.fail_link(a, b)
    network.start()
    return network, plane, episode


@pytest.mark.parametrize("protocol", ["rbgp", "stamp"])
def test_episode_collect_long(benchmark, graph, perf_records, protocol):
    """The simulation half of the storm: ``collect_episode_segments``.

    The analysis entries below collect their segments *before* the
    timed region, so what an injector costs per phase — one whole-
    network ``forwarding_state()`` each before the one-snapshot
    collector, a trace index and three small frozensets after it — was
    invisible to this suite.  A driven network cannot be rewound, so
    every round starts its own (untimed, in ``setup``); rounds are
    few because a start costs more than the storm.
    """
    def setup():
        network, _, episode = _storm(graph, protocol)
        return (network, episode), {}

    segments, initial_state, _ = benchmark.pedantic(
        collect_episode_segments, setup=setup, rounds=3, iterations=1
    )
    assert initial_state
    _record(
        perf_records,
        f"episode_collect_long_{protocol}",
        benchmark,
        phases=len(segments),
        trace_changes=sum(len(s.trace.changes) for s in segments),
    )


@pytest.mark.parametrize("protocol", ["bgp", "rbgp", "stamp"])
def test_transient_analysis_episode_long(
    benchmark, graph, perf_records, protocol
):
    """Long-horizon flap storm where boundary cost dominates.

    512 phases two simulated seconds apart: each segment's trace is
    tiny, so per-boundary work (failure-set patch, the failure-free
    detour for phase eligibility, tracker seeding/finalization) is
    nearly the whole bill.  Pins the cross-boundary successor-table
    patching path on the one-state planes (bgp; rbgp, whose boundary
    also re-derives the rows that divert) and the four-state one
    (stamp).
    """
    network, plane, episode = _storm(graph, protocol)
    segments, initial_state, _ = collect_episode_segments(network, episode)

    report = benchmark(
        analyze_episode_transient_problems,
        segments, initial_state, plane, graph.ases,
    )
    assert report.overall.eligible
    assert len(report.phases) == len(segments)
    _record(
        perf_records,
        f"transient_analysis_{protocol}_episode_long",
        benchmark,
        phases=len(segments),
        trace_changes=sum(len(s.trace.changes) for s in segments),
    )


def test_stamp_provider_refresh(benchmark, graph, perf_records):
    """STAMP provider-direction refresh over the multihomed nodes.

    Each round runs one plain refresh — the gate evaluated for both
    colors toward every provider, compared with the Adj-RIB-Out — for
    every multihomed node.  On a converged network every refresh is
    advertisement-neutral, so rounds are independent.
    """
    destination = graph.ases[len(graph.ases) // 3]
    network, _ = build_network("stamp", graph, destination, seed=0)
    network.start()
    nodes = [
        node
        for node in network.speakers.values()
        if len(node._providers) >= 2
    ]
    assert nodes

    def run():
        for node in nodes:
            node._refresh_providers(EventType.NO_LOSS)
        return len(nodes)

    result = benchmark(run)
    assert result == len(nodes)
    _record(
        perf_records, "stamp_provider_refresh", benchmark, nodes=len(nodes)
    )


# ----------------------------------------------------------------------
# Layer 4 — robustness (result ledger / resumable campaigns)
# ----------------------------------------------------------------------


def test_ledger_lookup(benchmark, perf_records, tmp_path):
    """Hit-path cost of the crash-safe result ledger.

    The resume fast path is ``key in ledger`` + ``get`` per unit; this
    measures both over every key of a populated ledger (O(1) dict hits
    plus payload unpickling) — the per-unit overhead a fully ledgered
    campaign pays instead of simulating.
    """
    RECORDS = 512
    ledger = ResultLedger(tmp_path / "bench-ledger.jsonl")
    keys = [f"{i:064x}" for i in range(RECORDS)]
    for i, key in enumerate(keys):
        ledger.put(key, {"affected": i, "updates": i * 3, "tag": "bench"})

    def run():
        total = 0
        for key in keys:
            if key in ledger:
                total += ledger.get(key)["affected"]
        return total

    result = benchmark(run)
    assert result == sum(range(RECORDS))
    ledger.close()
    _record(perf_records, "ledger_lookup", benchmark, records=RECORDS)


def test_campaign_resume(benchmark, perf_records, graph):
    """A fully ledgered campaign rerun: resume overhead, zero compute.

    First populates a ledger with a complete (instance, protocol) grid,
    then benchmarks rerunning the identical campaign against it — graph
    content hashing, per-unit key derivation, ledger load/verify, and
    the canonical merge, with every unit answered from disk.  This is
    the fixed cost a restarted sweep pays before recomputing anything.
    """
    instances = _instances()
    protocols = ("bgp", "stamp")
    with tempfile.TemporaryDirectory() as tmp:
        runner = ParallelRunner(
            workers=1, ledger=Path(tmp) / "ledger.jsonl"
        )

        def campaign():
            return runner.run_failure_comparison(
                single_provider_link_failure,
                "fig2-single-link",
                0,
                instances,
                protocols,
                graph,
            )

        first = campaign()
        assert first.complete and first.executed == instances * len(protocols)

        outcome = benchmark(campaign)
        assert outcome.executed == 0
        assert outcome.ledger_hits == instances * len(protocols)
    _record(
        perf_records,
        "campaign_resume",
        benchmark,
        instances=instances,
        ases=len(graph.ases),
    )


def test_campaign_warm_ledger(benchmark, perf_records, tmp_path):
    """A served campaign pays for the bytes it adds, not the file it joins.

    4-unit campaigns through two warm in-process ``CampaignService``s
    (topology cached, ledger open) whose ledgers already hold 100 vs
    10,000 foreign records: a daemon reads its file once, so the same
    campaigns must cost the second no more than 1.2x what they cost
    the first (ROADMAP item 2's target).  The daemons' rounds
    alternate, round ``n`` is the campaign with seed ``n`` on both
    (equal simulation work; four new records each), and the assertion
    compares total *CPU* time — reading, decoding and digesting a file
    is CPU, and this VM's wall clock swings with every fsync.  The
    recorded timing is the larger ledger's wall clock.
    """
    from repro.service.app import CampaignService, ServiceConfig

    ROUNDS = 25
    SMALL, LARGE = 100, 10_000
    topology = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
    services = {}
    #: Per daemon, each campaign's CPU seconds; seed 0 warms it up
    #: (topology generated, ledger read) and is not compared.
    cpu = {SMALL: [], LARGE: []}

    def campaign(records):
        spec = {
            "kind": "fig2", "instances": 2, "seed": len(cpu[records]),
            "protocols": ["bgp", "stamp"], "topology": topology,
        }
        started = time.process_time()
        _, status = services[records].submit(spec)
        while status["state"] in ("queued", "running"):
            time.sleep(0.001)
            status = services[records].status(status["id"])
        cpu[records].append(time.process_time() - started)
        assert status["state"] == "done" and status["executed"] == 4

    try:
        for records in cpu:
            state = tmp_path / f"ledger-{records}"
            state.mkdir()
            with open(state / "ledger.jsonl", "wb") as handle:
                handle.write(ResultLedger.encode_header())
                for i in range(records):
                    payload = pickle.dumps({"filler": i, "pad": "x" * 700})
                    handle.write(
                        ResultLedger.encode_record(f"{i:064x}", payload, 1.0)
                    )
            services[records] = CampaignService(ServiceConfig(
                journal_path=state / "journal.jsonl",
                ledger_path=state / "ledger.jsonl",
                workers=1, max_concurrent=1,
            ))
            services[records].start()
            campaign(records)
        benchmark.pedantic(
            campaign, args=(LARGE,), setup=lambda: campaign(SMALL),
            rounds=ROUNDS, iterations=1,
        )
    finally:
        for service in services.values():
            service.begin_shutdown()
            service.drain(timeout=30)
    small, large = sum(cpu[SMALL][1:]), sum(cpu[LARGE][1:])
    assert large <= 1.2 * small, cpu
    _record(
        perf_records,
        "campaign_warm_ledger",
        benchmark,
        records=LARGE,
        units=4,
        cpu_seconds=large / ROUNDS,
        small_ledger_records=SMALL,
        small_ledger_cpu_seconds=small / ROUNDS,
    )


def test_pool_twin_share(benchmark, perf_records, tmp_path, monkeypatch):
    """A pooled campaign restores the R-BGP twin starts it could share.

    ``fig2`` x 16 on the gate's 154-AS pool graph at ``workers=2``: 16
    R-BGP pairs, so 16 converged starts that the second twin can
    restore from the runner's one-slot snapshot — if it runs in the
    process that parked it, right after.  The dispatch rule
    (``Supervisor._next_eligible``) arranges that; with the
    head-of-queue rule it replaced this grid restored 0-3 of 16 and
    pickled 29-32 snapshots.  Snapshots and restores are counted from
    every process through a fork-inherited patch appending to a file;
    ``cpu_seconds`` is the campaign's CPU time, supervisor plus reaped
    workers, minimum over the rounds (wall clock on a shared VM is
    noise; two workers on however many cores is the same CPU work).
    """
    rounds = 1 if _smoke() else 5
    instances = 4 if _smoke() else 16
    graph, _ = generate_internet_topology(InternetTopologyConfig(
        seed=5, n_tier1=2, n_tier2=12, n_tier3=30, n_stub=110,
    ))
    marks = tmp_path / "marks"

    def mark(byte):
        fd = os.open(marks, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, byte)
        finally:
            os.close(fd)

    real_init, real_restore = _StartSnapshot.__init__, _StartSnapshot.restore

    def counting_init(self, network, graph):
        mark(b"s")
        real_init(self, network, graph)

    def counting_restore(self):
        mark(b"r")
        return real_restore(self)

    monkeypatch.setattr(_StartSnapshot, "__init__", counting_init)
    monkeypatch.setattr(_StartSnapshot, "restore", counting_restore)
    cpu = []

    def cpu_now():
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + reaped.ru_utime + reaped.ru_stime

    def campaign():
        started = cpu_now()
        data = fig2_single_link_failure(
            ExperimentConfig(seed=0, n_instances=instances, workers=2),
            graph=graph,
        )
        cpu.append(cpu_now() - started)
        assert data.complete and data.executed == 4 * instances

    benchmark.pedantic(campaign, rounds=rounds, iterations=1)
    counts = marks.read_bytes()
    restores = counts.count(b"r") / rounds
    snapshots = counts.count(b"s") / rounds
    assert snapshots + restores == 2 * instances
    if multiprocessing.get_start_method() == "fork":
        assert restores >= instances - 2, counts
    _record(
        perf_records,
        "pool_twin_share",
        benchmark,
        instances=instances,
        workers=2,
        ases=len(graph.ases),
        twin_restores=restores,
        twin_snapshots=snapshots,
        cpu_seconds=min(cpu),
    )


# ----------------------------------------------------------------------
# Start-up — what a command costs before it does any work
# ----------------------------------------------------------------------

#: The gate's 62-AS graph (``bench/workloads.py``, ``fig2_serial``):
#: generating and saving it is ~1.4 ms, so `topology` is all start-up.
_GATE_GRAPH = ["--tier1", "3", "--tier2", "8", "--tier3", "16", "--stubs", "35"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("help", ["--help"]),
        ("topology", _GATE_GRAPH + ["topology", "--out", "graph.txt"]),
        ("fig2_1", _GATE_GRAPH + ["--instances", "1", "fig2"]),
    ],
)
def test_cli_startup(benchmark, perf_records, tmp_path, name, argv):
    """``python -m repro.cli ...`` as a child, from spawn to exit.

    ``help`` and ``topology`` import the parser, the catalogue and the
    generator and nothing they do not run (pinned as module sets by
    ``tests/test_import_footprint.py``); ``fig2_1`` imports nearly the
    whole package, so it is the entry that should *not* move.  Wall
    clock of a 60-150 ms child on a shared VM: read the minimum and the
    median with their spread, never the mean.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    def run():
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], cwd=tmp_path,
            env=env, stdout=subprocess.DEVNULL, check=True,
        )

    benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=1)
    stats = benchmark.stats.stats
    _record(
        perf_records,
        f"cli_startup_{name}",
        benchmark,
        median_seconds=stats.median,
        q1_seconds=stats.q1,
        q3_seconds=stats.q3,
        max_seconds=stats.max,
    )


# ----------------------------------------------------------------------
# End to end — Figure 2 at scale 1.0 and 2.0
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_fig2_end_to_end(benchmark, perf_records, scale):
    """Full Figure 2 reproduction (all four protocols, n instances)."""
    config = ExperimentConfig(
        seed=0, topology=_scaled_topology(scale), n_instances=_instances()
    )
    data = benchmark.pedantic(
        fig2_single_link_failure, args=(config,), rounds=1, iterations=1
    )
    measured = data.mean_affected()
    assert measured["bgp"] > measured["stamp"]
    _record(
        perf_records,
        f"fig2_e2e_scale{scale:g}",
        benchmark,
        scale=scale,
        instances=_instances(),
        mean_affected={k: round(v, 2) for k, v in measured.items()},
    )


def test_fig2_end_to_end_parallel(benchmark, perf_records):
    """Figure 2 with the multiprocessing fan-out (workers=4).

    Byte-identical results to the serial path (asserted); the recorded
    timing is honest for the machine it ran on — on a single-CPU
    container this measures fork/IPC overhead, on multi-core hardware
    the (instance, protocol) grid genuinely parallelizes.  Compare
    against ``fig2_e2e_scale1`` (same instances, workers=1) via the
    recorded ``serial_sibling`` field.
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    config = ExperimentConfig(
        seed=0,
        topology=_scaled_topology(1.0),
        n_instances=_instances(),
        workers=workers,
    )
    data = benchmark.pedantic(
        fig2_single_link_failure, args=(config,), rounds=1, iterations=1
    )
    measured = data.mean_affected()
    serial = fig2_single_link_failure(
        ExperimentConfig(
            seed=0, topology=_scaled_topology(1.0), n_instances=_instances()
        )
    )
    assert measured == serial.mean_affected()
    _record(
        perf_records,
        "fig2_e2e_parallel",
        benchmark,
        workers=workers,
        cpus=multiprocessing.cpu_count(),
        instances=_instances(),
        serial_sibling="fig2_e2e_scale1",
        mean_affected={k: round(v, 2) for k, v in measured.items()},
    )
