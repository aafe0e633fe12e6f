"""Tier-1 checks of the benchmark harness, on a tiny grid.

Drives the harness's Python API (same code the driver's command runs)
at sizes that keep the whole module in seconds: the contract shape of
``BENCHMARK.json``, the names a run prints, span nesting and self-time
arithmetic, wrapper install/restore, and digest tamper detection.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

from bench import compare, run, tracing, workloads

TINY = workloads.Sizes(
    serial_topology=(2, 4, 6, 12), serial_campaigns=1, serial_instances=2,
    flap_topology=(2, 4, 6, 12), flap_campaigns=1, flap_instances=2, flap_flaps=3,
    pool_topology=(2, 4, 6, 12), pool_campaigns=1, pool_instances=2,
    service_clients=2, service_sessions=3, service_phases=2,
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    return run.load_benchmark()


@pytest.fixture(scope="module")
def table():
    return workloads.build(TINY)


@pytest.fixture(scope="module")
def unpinned():
    # Tiny grids have no pinned digests: internal equalities only.
    return {"seed": -1, "workloads": {}}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-out")


@pytest.fixture(scope="module")
def traced_entries(table, benchmark_json, unpinned, out):
    """One traced run (reference round + traced pass + probes) of the
    two workloads that between them reach every layer."""
    saved = run.TRACED_PASSES
    run.TRACED_PASSES = 1
    try:
        return {
            name: run.run_workload(
                table[name], 0, 1.0, True, out, benchmark_json, unpinned,
                max_rounds=1,
            )
            for name in ("fig2_pool_ledger", "service_mixed")
        }
    finally:
        run.TRACED_PASSES = saved


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["paths"] == ["bench"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = []
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used twice"
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in benchmark_json["end_to_end"])
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.build())
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_wrapper_target_resolves_and_is_restored():
    originals = [tracing._resolve(target) for target in tracing.TARGETS]
    installed = tracing.install(tracing.Tracer())
    try:
        for (owner, name, raw) in originals:
            assert vars(owner)[name] is not raw, f"{name} was not wrapped"
    finally:
        tracing.remove(installed)
    for (owner, name, raw) in originals:
        assert vars(owner)[name] is raw, f"{name} was not restored"


def test_a_missing_wrapper_target_fails_loudly():
    ghost = tracing.Target("repro.experiments.runner", "no_such_function", "x")
    with pytest.raises(tracing.TraceTargetError):
        tracing._resolve(ghost)


@pytest.fixture(scope="module")
def untraced_entries(table, benchmark_json, unpinned, out):
    return {
        name: run.run_workload(
            table[name], 0, 1.0, False, out, benchmark_json, unpinned,
            max_rounds=1,
        )
        for name in ("fig2_serial", "flap_storm")
    }


@pytest.mark.parametrize("name", ["fig2_serial", "flap_storm"])
def test_untraced_run_reports_exactly_the_end_to_end_names(
    name, untraced_entries, benchmark_json, capsys
):
    entry = untraced_entries[name]
    assert entry["failed"] == 0, entry["errors"]
    line = run.contract_line(entry, False, benchmark_json)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())
    run.print_entry(name, entry)
    printed = {text.split()[1] for text in capsys.readouterr().out.splitlines()}
    assert printed == set(declared) | {"attempted", "failed"}


def test_traced_run_reports_exactly_the_declared_names(
    traced_entries, benchmark_json, capsys
):
    end_to_end = {m["name"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    for name, entry in traced_entries.items():
        assert entry["failed"] == 0, entry["errors"]
        line = run.contract_line(entry, True, benchmark_json)
        assert line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer
        run.print_entry(name, entry)
        printed = {text.split()[1] for text in capsys.readouterr().out.splitlines()}
        assert printed == end_to_end | set(per_layer) | {"attempted", "failed"}
    # Each layer is entered by the workload that is there for it ...
    pool = traced_entries["fig2_pool_ledger"]["per_layer"]
    service = traced_entries["service_mixed"]["per_layer"]
    for metric in ("topology.shm_share_ms", "topology.shm_attach_ms",
                   "experiments.resume_wall_s", "experiments.pool_efficiency",
                   "experiments.ledger_put_us", "experiments.ledger_get_us",
                   "sim.converge_s.rbgp-norci", "sim.react_s.rbgp",
                   "experiments.twin_restores"):
        assert pool[metric]["value"] > 0, metric
    for metric in ("service.spec_parse_us", "service.journal_append_us",
                   "service.journal_replay_ms", "service.submit_ack_p50_ms",
                   "service.submit_to_done_p90_s", "service.restart_ready_s",
                   "service.exec_ms", "experiments.ledger_hit_ratio"):
        assert service[metric]["value"] > 0, metric
    # ... and bypassed by the other.
    assert pool["service.journal_append_us"]["value"] == 0
    assert service["topology.shm_share_ms"]["value"] == 0
    assert service["sim.react_s.rbgp"]["value"] == 0


def test_spans_nest_and_self_times_sum_to_the_traced_wall(traced_entries, out):
    trace = json.loads((out / "trace-fig2_pool_ledger.json").read_text())
    assert [c["leg"] for c in trace["commands"]] == ["setup", "main", "resume", "serial"]
    for command in trace["commands"]:
        spans = [tracing.Span.from_json(doc) for doc in command["spans"]]
        by_index = {span.index: span for span in spans}
        for span in spans:
            assert span.end >= span.start
            if span.parent is not None:
                parent = by_index[span.parent]
                assert parent.start <= span.start and span.end <= parent.end
        own = tracing.self_times(spans)
        assert min(own.values()) >= -1e-9
        assert sum(own.values()) == pytest.approx(tracing.covered_time(spans))
        # From spawn to the return of repro.cli.main, on the child's
        # clock (cli.exit, the teardown after it, is the parent's).
        inside = tracing.covered_time(s for s in spans if s.name != "cli.exit")
        window = command["finished_at"] - spans[0].start
        assert inside <= window
        if command["leg"] != "setup":
            # All but main()'s own few lines is inside some span.
            assert inside >= 0.98 * window


def test_a_tampered_expected_digest_fails_the_run(
    untraced_entries, table, benchmark_json, out
):
    honest = untraced_entries["fig2_serial"]
    pinned = {"seed": 0, "workloads": {"fig2_serial": dict(honest["digests"])}}
    matched = run.verify("fig2_serial", 0, [honest["digests"]], pinned)
    assert (matched.attempted, matched.failed) == (2, 0)
    tampered = copy.deepcopy(pinned)
    tampered["workloads"]["fig2_serial"]["stdout-0"] = "0" * 64
    entry = run.run_workload(
        table["fig2_serial"], 0, 1.0, False, out, benchmark_json, tampered,
        max_rounds=1,
    )
    assert entry["failed"] > 0
    assert run.contract_line(entry, False, benchmark_json)["correct"] is False
    # A seed that is not pinned keeps only the internal equalities.
    assert run.verify("fig2_serial", 7, [honest["digests"]], tampered).failed == 0


def _result(value, rounds):
    entry = {"value": value, "rounds": rounds}
    return {"workloads": {"fig2_serial": {"failed": 0, "end_to_end": {"wall_s": entry}}}}


def test_compare_verdicts(benchmark_json):
    def verdict(a, b):
        rows = compare.compare(a, b, benchmark_json)
        assert [(r["workload"], r["metric"]) for r in rows] == [("fig2_serial", "wall_s")]
        return rows[0]["verdict"]

    base = _result(4.0, [4.0, 4.05, 5.9])
    assert verdict(base, _result(4.1, [4.1, 4.2, 6.0])) == "same"
    assert verdict(base, _result(3.0, [3.0, 3.1])) == "same"  # better is not worse
    assert verdict(base, _result(5.0, [5.0, 5.1, 7.0])) == "worse"
    # One undisturbed round on B's side, rounds overlapping: run again.
    assert verdict(base, _result(5.0, [5.0, 6.5, 7.0])) == "unresolved"
    # ... unless every round of B is worse than every round of A.
    assert verdict(_result(4.0, [4.0, 4.05]), _result(5.0, [5.0, 6.5])) == "worse"
