"""The four workloads: what one round runs, measures and checks.

Every workload goes through the public CLI / HTTP surface in child
processes.  A *round* is the workload's sequence of operations once,
over a fresh state directory; its first operation is the set-up (the
time before the first unit can start).  Operations are short on
purpose — about a second each — and each is bracketed by two samples
of the host's pace (:class:`bench.measure.Pace`), so its time can be
reported at reference speed however disturbed the host was.

``--seed`` feeds the CLI ``--seed`` and the campaign specs' ``seed``
only — it draws the failure scenarios.  The topology is the fixture
(one generated AS graph per workload, as in the paper: one measured
graph, many random failure instances), and a round runs enough
instances that its work is comparable from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import service_load
from bench.measure import (
    CHILD_TIMEOUT_S,
    ROOT,
    ChildResult,
    Pace,
    child_env,
    cli_argv,
    cpu_s,
    reap,
    rss_mb,
    run_child,
)

#: Seed of every workload's topology (the service campaigns carry their
#: own, in ``service_load.TINY_TOPOLOGY``).
TOPOLOGY_SEED = 5
PLANES = 4
_LABELS = ("BGP", "R-BGP without RCI", "R-BGP", "STAMP")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Checks:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check_child(self, child: ChildResult, what: str) -> bool:
        return self.check(
            child.ok, f"{what}: exit {child.status}: {child.stderr_tail[-400:]}"
        )


@dataclass
class Round(Checks):
    """One round: its measurements, its output digests, its checks."""

    #: operation -> wall seconds of one main-leg operation, at
    #: reference speed (measured wall / ``slow[operation]``).
    walls: Dict[str, float] = field(default_factory=dict)
    #: operation -> user+sys CPU seconds of its whole process tree, at
    #: reference speed.
    cpus: Dict[str, float] = field(default_factory=dict)
    #: operation -> how much slower than the reference the host ran it.
    slow: Dict[str, float] = field(default_factory=dict)
    #: Every pace sample of the round, in ms (the host-noise record).
    calibrations: List[float] = field(default_factory=list)
    #: Peak RSS of the largest process of the main leg.
    rss_mb: float = 0.0
    #: (instance, protocol) units the main leg resolved.
    units: int = 0
    #: Measured once per round: ``setup_s`` and the workload's extras
    #: (times at reference speed).
    values: Dict[str, float] = field(default_factory=dict)
    #: Per-campaign client timings, phase by phase and client by client,
    #: at reference speed (service only).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: label -> sha256 of an output; equal across rounds of one seed
    #: and, for seed 0, pinned in ``expected.json``.
    digests: Dict[str, str] = field(default_factory=dict)

    def record(self, operation: str, child: ChildResult, slowdown: float) -> None:
        self.walls[operation] = child.wall_s / slowdown
        self.cpus[operation] = child.cpu_s / slowdown
        self.slow[operation] = slowdown
        self.rss_mb = max(self.rss_mb, child.rss_mb)


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of the four workloads (tests shrink them).

    Chosen so that one round is 3-5 s of operations of about a second
    (so that several repetitions fit a run) over enough instances that
    the work of a round varies by only a few percent from seed to seed:
    per instance it varies ~20%, so a round needs dozens of them, which
    at these durations means small graphs.
    """

    #: (tier1, tier2, tier3, stubs), campaigns per round, instances each.
    serial_topology: Tuple[int, int, int, int] = (3, 8, 16, 35)
    serial_campaigns: int = 4
    serial_instances: int = 20
    flap_topology: Tuple[int, int, int, int] = (3, 8, 16, 35)
    flap_campaigns: int = 4
    flap_instances: int = 7
    flap_flaps: int = 32
    pool_topology: Tuple[int, int, int, int] = (2, 12, 30, 110)
    pool_campaigns: int = 3
    pool_instances: int = 16
    service_clients: int = 2
    service_sessions: int = 30
    #: The sessions run in this many phases, pace sampled between them.
    service_phases: int = 5


def _traced_cli(args: List[str]) -> List[str]:
    return ["cli", "--", *args]


class CliCampaigns:
    """Figure/flap campaigns through ``python -m repro.cli``, one
    invocation per campaign, each with its own seed."""

    def __init__(
        self,
        name: str,
        why: str,
        topology: Tuple[int, int, int, int],
        campaigns: int,
        instances: int,
        command: Sequence[object],
    ) -> None:
        self.name = name
        self.why = why
        self.topology = topology
        self.campaigns = campaigns
        self.instances = instances
        self.command = [str(part) for part in command]
        self.units = campaigns * instances * PLANES

    def setup_args(self, state: Path) -> List[str]:
        t1, t2, t3, stubs = self.topology
        return ["--seed", str(TOPOLOGY_SEED), "--tier1", str(t1),
                "--tier2", str(t2), "--tier3", str(t3), "--stubs", str(stubs),
                "topology", "--out", str(state / "g.txt")]

    def campaign_args(self, seed: int, index: int, state: Path, *extra: object) -> List[str]:
        return ["--seed", str(seed * 100 + index),
                "--topology-file", str(state / "g.txt"),
                "--instances", str(self.instances), *map(str, extra),
                *self.command]

    def _setup(self, state: Path, result: Round, pace: Pace) -> None:
        setup = run_child(cli_argv(*self.setup_args(state)), state)
        result.check_child(setup, "topology --out")
        result.values["setup_s"] = setup.wall_s / pace.slowdown()

    def _campaign(self, args: List[str], state: Path, result: Round, leg: str) -> ChildResult:
        child = run_child(cli_argv(*args), state)
        result.check_child(child, leg)
        text = child.stdout.decode("utf-8", "replace")
        result.check(
            all(label in text for label in _LABELS),
            f"{leg}: chart does not name all four planes",
        )
        result.digests[leg] = sha256(child.stdout)
        return child

    def main_args(self, seed: int, index: int, state: Path) -> List[str]:
        """Campaign ``index`` of the main leg (what ``wall_s`` times)."""
        return self.campaign_args(seed, index, state)

    def run_round(self, seed: int, state: Path) -> Round:
        pace = Pace()
        result = Round(units=self.units, calibrations=pace.samples)
        self._setup(state, result, pace)
        for index in range(self.campaigns):
            args = self.main_args(seed, index, state)
            child = self._campaign(args, state, result, f"stdout-{index}")
            result.record(f"campaign-{index}", child, pace.slowdown())
        self._after_main(seed, state, result, pace)
        return result

    def _after_main(self, seed: int, state: Path, result: Round, pace: Pace) -> None:
        """What the round does once the main leg is timed: nothing here."""

    def traced_commands(self, seed: int, state: Path) -> List[Tuple[str, List[str]]]:
        """``(leg, arguments of bench/traced_child.py)`` for each command
        of the traced pass: the same argv, handed to ``repro.cli.main``."""
        return [("setup", _traced_cli(self.setup_args(state)))] + [
            ("main", _traced_cli(self.main_args(seed, index, state)))
            for index in range(self.campaigns)
        ]


class PoolLedgerCampaigns(CliCampaigns):
    """fig2 over the supervised pool with a ledger; the first campaign
    of the round is then re-run fully ledgered."""

    WORKERS = 2

    def main_args(self, seed: int, index: int, state: Path) -> List[str]:
        return self.campaign_args(
            seed, index, state,
            "--workers", self.WORKERS, "--ledger", state / f"ledger-{index}.jsonl",
        )

    def serial_args(self, seed: int, index: int, state: Path) -> List[str]:
        """The same grid and ledger discipline on one in-process worker."""
        return self.campaign_args(
            seed, index, state,
            "--workers", 1, "--ledger", state / f"ledger-serial-{index}.jsonl",
        )

    def _after_main(self, seed: int, state: Path, result: Round, pace: Pace) -> None:
        """Campaign 0 again, fully ledgered."""
        ledger = state / "ledger-0.jsonl"
        before = ledger.read_bytes() if ledger.exists() else b""
        resumed = self._campaign(
            self.main_args(seed, 0, state), state, result, "stdout-resume"
        )
        result.values["resume_wall_s"] = resumed.wall_s / pace.slowdown()
        result.check(
            result.digests.get("stdout-0") == result.digests.pop("stdout-resume"),
            "resumed output differs from the fresh output",
        )
        # Nothing recomputed, nothing re-appended.
        result.check(
            ledger.exists() and ledger.read_bytes() == before,
            "the ledger changed across the fully-ledgered resume",
        )
        stats = run_child(cli_argv("ledger", "stats", ledger), state)
        result.check_child(stats, "ledger stats")
        reported = dict(
            line.split(None, 1) for line in stats.stdout.decode().splitlines()
            if " " in line
        )
        units = self.instances * PLANES
        result.check(
            reported.get("records", "").strip() == str(units),
            f"ledger stats reports {reported.get('records')} records, "
            f"expected {units}",
        )
        result.values["ledger_bytes_per_unit"] = len(before) / units

    def traced_commands(self, seed: int, state: Path) -> List[Tuple[str, List[str]]]:
        return (
            super().traced_commands(seed, state)
            + [("resume", _traced_cli(self.main_args(seed, 0, state)))]
            # Units inside pool workers are not spanned (the fork loses
            # them): per-stage numbers come from the same grid on one
            # in-process worker.
            + [("serial", _traced_cli(self.serial_args(seed, index, state)))
               for index in range(self.campaigns)]
        )


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------


class _Daemon:
    """One lifetime of ``python -m repro.cli serve`` over a state dir."""

    def __init__(self, state: Path) -> None:
        self._stderr = open(state / "daemon-stderr.txt", "ab")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            cli_argv(
                "serve", "--port", "0",
                "--ledger", state / "ledger.jsonl",
                "--journal", state / "journal.jsonl",
                "--max-concurrent", "2",
            ),
            env=child_env(), cwd=str(ROOT), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.process.kill)
        self._watchdog.start()
        self.host = self.port = None
        self.reaped: Optional[Tuple[int, object]] = None
        line = self.process.stdout.readline().strip()
        if line.startswith("listening on http://"):
            self.host, _, port = line.rsplit("/", 1)[1].rpartition(":")
            self.port = int(port)

    def client(self) -> service_load.HttpClient:
        return service_load.HttpClient(self.host, self.port)

    def wait_ready(self, listed: int = 0) -> Optional[float]:
        """Seconds from spawn to ``/readyz`` 200 with ``listed`` campaigns
        re-listed, or ``None`` if that never happened."""
        if self.port is None:
            return None
        client = self.client()
        while time.perf_counter() - self.spawned < 30.0:
            try:
                status, _ = client.get("/readyz")
                if status == 200:
                    if not listed:
                        return time.perf_counter() - self.spawned
                    _, payload = client.get("/campaigns")
                    if len(json.loads(payload)["campaigns"]) == listed:
                        return time.perf_counter() - self.spawned
            except OSError:
                pass  # not accepting yet
            time.sleep(0.005)
        return None

    def stop(self) -> Tuple[int, object]:
        """SIGTERM, then reap: ``(exit_status, rusage)`` of the tree."""
        if self.reaped is None:
            try:
                self.process.send_signal(signal.SIGTERM)
                self.process.stdout.read()
                self.reaped = reap(self.process)
            finally:
                self.close()
        return self.reaped

    def close(self) -> None:
        """Make sure the process is gone, whatever happened before."""
        self._watchdog.cancel()
        if self.reaped is None:
            self.process.kill()
            self.reaped = reap(self.process)
        self.process.stdout.close()
        self._stderr.close()


def _journal_lifecycle(path: Path) -> Tuple[List[float], List[float]]:
    """``(queue_wait_ms, exec_ms)`` per campaign, from the journal's
    ``submitted`` / ``running`` / terminal record timestamps."""
    submitted: Dict[str, float] = {}
    running: Dict[str, float] = {}
    waits: List[float] = []
    execs: List[float] = []
    for line in path.read_bytes().splitlines():
        body = json.loads(line).get("body", {})
        cid, ts = body.get("id"), body.get("ts")
        if body.get("event") == "submitted":
            submitted[cid] = ts
        elif body.get("event") == "state":
            if body.get("state") == "running":
                running[cid] = ts
            elif cid in running and body.get("state") in service_load.TERMINAL_STATES:
                waits.append((running[cid] - submitted[cid]) * 1e3)
                execs.append((ts - running[cid]) * 1e3)
    return waits, execs


class ServiceMixed:
    """Closed-loop campaign sessions against the HTTP daemon, then a restart."""

    def __init__(self, name: str, why: str, clients: int, sessions: int, phases: int) -> None:
        self.name = name
        self.why = why
        self.clients = clients
        self.sessions = sessions
        self.phases = phases

    def run_round(self, seed: int, state: Path) -> Round:
        pace = Pace()
        result = Round(calibrations=pace.samples)
        logs = [service_load.ClientLog() for _ in range(self.clients)]
        daemon = _Daemon(state)
        try:
            ready = daemon.wait_ready()
            if not result.check(ready is not None, "daemon never became ready"):
                return result
            result.values["setup_s"] = ready / pace.slowdown()
            client = daemon.client()
            bounds = service_load.phase_bounds(self.sessions, self.phases)
            for index, (first, last) in enumerate(bounds):
                seen = [len(log.samples) for log in logs]
                makespan = service_load.run_phase(client, seed, logs, first, last)
                slow = pace.slowdown()
                result.slow[f"phase-{index}"] = slow
                result.walls[f"phase-{index}"] = makespan / slow
                for log, count in zip(logs, seen):
                    self._extend_series(result.series, log.samples[count:], slow)
            status, rusage = daemon.stop()
            result.check(status == 0, f"daemon exit {status} after SIGTERM")
        finally:
            daemon.close()
        for log in logs:
            result.attempted += log.attempted
            result.failed += log.failed
            result.errors.extend(log.errors)
        samples = [sample for log in logs for sample in log.samples]
        if result.failed or not samples:
            return result
        # The daemon lived through every phase: its CPU is scaled by
        # the pace of the whole loop.
        loop_pace = statistics.fmean(result.slow.values())
        result.cpus["daemon"] = cpu_s(rusage) / loop_pace
        result.rss_mb = rss_mb(rusage)
        result.units = sum(sample.units for sample in samples)
        result.digests["results"] = service_load.results_digest(logs)
        self._files(result, logs, samples, state, loop_pace)
        self._restart(result, logs, state, pace)
        return result

    def traced_commands(self, seed: int, state: Path) -> List[Tuple[str, List[str]]]:
        """One traced child: an in-process ``CampaignService`` driven
        through the same sessions."""
        return [("main", [
            "service", "--state", str(state), "--seed", str(seed),
            "--clients", str(self.clients), "--sessions", str(self.sessions),
            "--phases", str(self.phases),
        ])]

    @staticmethod
    def _extend_series(series: Dict[str, List[float]], samples, slow: float) -> None:
        """Client timings of one phase's campaigns, at that phase's pace."""
        for sample in samples:
            series.setdefault("ack_ms", []).append(sample.ack_ms / slow)
            series.setdefault("done_s", []).append(sample.done_s / slow)
            series.setdefault("poll_ms", []).append(
                statistics.median(sample.poll_ms) / slow)
            series.setdefault("fetch_ms", []).append(sample.fetch_ms / slow)
            series.setdefault("polls", []).append(float(sample.polls))

    def _files(self, result: Round, logs, samples, state: Path, loop_pace: float) -> None:
        values = result.values
        values["refused"] = sum(log.refused for log in logs)
        executed = sum(s.executed for s in samples)
        hits = sum(s.ledger_hits for s in samples)
        values["ledger_hit_ratio"] = hits / (hits + executed)
        values["ledger_bytes_per_unit"] = (
            (state / "ledger.jsonl").stat().st_size / executed
        )
        journal = state / "journal.jsonl"
        values["journal_bytes_per_campaign"] = journal.stat().st_size / len(samples)
        waits, execs = _journal_lifecycle(journal)
        values["queue_wait_ms"] = statistics.median(waits) / loop_pace
        values["exec_ms"] = statistics.median(execs) / loop_pace

    def _restart(self, result: Round, logs, state: Path, pace: Pace) -> None:
        """Restart over the same files; every result must come back
        byte-identical."""
        campaigns = sum(len(log.results) for log in logs)
        daemon = _Daemon(state)
        try:
            ready = daemon.wait_ready(listed=campaigns)
            if result.check(
                ready is not None,
                f"restart never re-listed all {campaigns} campaigns",
            ):
                result.values["restart_ready_s"] = ready / pace.slowdown()
                client = daemon.client()
                result.check(
                    all(
                        client.result(cid) == (200, body)
                        for log in logs for cid, body in log.results
                    ),
                    "a result changed across the restart",
                )
            status, _ = daemon.stop()
            result.check(status == 0, f"restarted daemon exit {status}")
        finally:
            daemon.close()


def build(sizes: Sizes = Sizes()) -> Dict[str, object]:
    """The four workloads, by name, in reporting order."""
    workloads = [
        CliCampaigns(
            "fig2_serial",
            "The paper's headline figure through the CLI, in-process: the "
            "simulation core (initial convergence, failure reaction) does "
            "most of the work.",
            sizes.serial_topology, sizes.serial_campaigns,
            sizes.serial_instances, ["fig2"],
        ),
        CliCampaigns(
            "flap_storm",
            "The same layers used differently: transient analysis and "
            "reaction under trace recording dominate, initial convergence "
            "is small; also the memory-heavy case.",
            sizes.flap_topology, sizes.flap_campaigns, sizes.flap_instances,
            ["flap", "--period", "2", "--flaps", sizes.flap_flaps],
        ),
        PoolLedgerCampaigns(
            "fig2_pool_ledger",
            "The only workload where the supervised pool, shared-memory "
            "topology, pipe IPC, content hashing and the ledger do real "
            "work; re-run fully ledgered to isolate start-up and reads.",
            sizes.pool_topology, sizes.pool_campaigns, sizes.pool_instances,
            ["fig2"],
        ),
        ServiceMixed(
            "service_mixed",
            "POST /campaigns to a done result over loopback HTTP with tiny "
            "campaigns: HTTP, spec parsing, journal fsyncs, lane hand-off, "
            "ledger and polling are most of the latency, the sim core is not.",
            sizes.service_clients, sizes.service_sessions, sizes.service_phases,
        ),
    ]
    return {workload.name: workload for workload in workloads}
