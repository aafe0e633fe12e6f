"""The import-footprint wall: a command imports what it runs.

Start-up cost is module *sets*, so that is what this file pins — never
a timing.  Every footprint is read in a fresh child interpreter
(pytest has long since imported everything into this one): the child
runs a command through ``repro.cli.main`` and writes ``sys.modules``
to a file.  A package is its docstring and a name is imported from
the module that defines it (``tests/test_docs.py``), so ``import
repro`` loads one module and a command loads only the modules its
imports name.  The second half checks, for each package, what that
means at run time: importing it loads nothing below it, and it serves
no name a submodule defines.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)
TINY = [
    "--tier1", "2", "--tier2", "4", "--tier3", "6", "--stubs", "12",
]
#: What a command that simulates nothing must not have loaded: the
#: execution stack, every protocol plane, and the two standard-library
#: packages that were most of the old start-up.
EXECUTION_STACK = (
    "repro.experiments.supervisor", "repro.experiments.parallel",
    "repro.experiments.runner", "repro.experiments.ledger",
    "repro.bgp", "repro.rbgp", "repro.stamp", "repro.sim",
    "repro.analysis", "repro.service", "multiprocessing", "logging",
)
NETWORKS = ("repro.bgp.network", "repro.rbgp.network", "repro.stamp.network")

#: Every child script starts with this and reports through ``report``.
PRELUDE = """
import json, os, sys

def repro_modules():
    return sorted(name for name in sys.modules if name.startswith("repro"))

def report(document):
    with open(sys.argv[1], "w") as handle:
        json.dump(document, handle)
"""


def run_child(body, tmp_path, *argv, timeout=120):
    """Run ``body`` in a fresh interpreter; returns what it reported."""
    out = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body), str(out), *argv],
        env=dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{REPO}"),
        stdout=subprocess.DEVNULL, check=True, timeout=timeout,
    )
    return json.loads(out.read_text())


def loaded(modules, prefixes):
    """The entries of ``modules`` at or under any of ``prefixes``."""
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


#: ``repro.cli.main(argv)`` (a ``--help`` exits through SystemExit),
#: then every loaded module name.
RUN_MAIN = """
    import repro.cli
    try:
        status = repro.cli.main(sys.argv[2:])
    except SystemExit as exit:
        status = exit.code
    report({"status": status, "modules": sorted(sys.modules)})
"""


class TestACommandImportsWhatItRuns:
    def test_importing_the_package_loads_one_module(self, tmp_path):
        got = run_child("import repro; report(repro_modules())", tmp_path)
        assert got == ["repro"]

    @pytest.mark.parametrize("command", ["--help", "topology"])
    def test_help_and_topology_load_no_execution_stack(self, command, tmp_path):
        graph = tmp_path / "graph.txt"
        argv = ["--help"] if command == "--help" else TINY + [
            "topology", "--out", str(graph)
        ]
        got = run_child(RUN_MAIN, tmp_path, *argv)
        assert got["status"] == 0
        assert graph.exists() == (command == "topology")
        assert loaded(got["modules"], EXECUTION_STACK) == []

    def test_a_serial_campaign_without_a_ledger_loads_no_pool_code(
        self, tmp_path
    ):
        """One worker and no ledger: the campaign runs in this process,
        so the pool's modules (``multiprocessing``, the shared-memory
        topology) and the ledger's are never needed, and a ledger
        loads the ledger's alone."""
        pool_and_ledger = (
            "multiprocessing", "repro.topology.shm", "repro.experiments.ledger",
        )
        got = run_child(
            RUN_MAIN, tmp_path, *TINY, "--workers", "1", "--instances", "2", "fig2"
        )
        assert got["status"] == 0
        assert "repro.experiments.supervisor" in got["modules"]
        assert loaded(got["modules"], pool_and_ledger) == []
        got = run_child(
            RUN_MAIN, tmp_path, *TINY, "--workers", "1", "--instances", "2",
            "--ledger", str(tmp_path / "ledger.jsonl"), "fig2",
        )
        assert got["status"] == 0
        assert loaded(got["modules"], pool_and_ledger) == [
            "repro.experiments.ledger"
        ]

    def test_ledger_stats_loads_no_plane_and_no_service(self, tmp_path):
        from repro.experiments.ledger import ResultLedger

        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as ledger:
            ledger.put("key", {"k": 1})
        got = run_child(RUN_MAIN, tmp_path, "ledger", "stats", str(path))
        assert got["status"] == 0
        reads_a_ledger = {"repro.experiments.ledger", "logging"}
        assert reads_a_ledger <= set(got["modules"])
        assert loaded(
            got["modules"], set(EXECUTION_STACK) - reads_a_ledger
        ) == []

    def test_serve_is_warm_before_it_says_where_it_listens(self, tmp_path):
        """The daemon's first campaign must not pay for an import (it
        would sit inside a client's submit-to-done latency): when the
        bound address is printed the whole execution stack is loaded,
        and a four-plane campaign run to ``done`` afterwards imports
        no further ``repro`` module."""
        got = run_child(
            """
            import signal, threading, time, urllib.request
            import repro.cli

            seen = {}

            def campaign(base):
                spec = {"kind": "flap", "instances": 1, "flaps": 1, "topology": {
                    "seed": 1, "tier1": 2, "tier2": 4, "tier3": 6, "stubs": 12}}
                post = urllib.request.Request(
                    base + "/campaigns", data=json.dumps(spec).encode(), method="POST")
                with urllib.request.urlopen(post, timeout=30) as response:
                    cid = json.load(response)["id"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    with urllib.request.urlopen(f"{base}/campaigns/{cid}", timeout=30) as r:
                        seen["state"] = json.load(r)["state"]
                    if seen["state"] not in ("queued", "running"):
                        break
                    time.sleep(0.05)
                seen["after"] = repro_modules()
                os.kill(os.getpid(), signal.SIGTERM)

            class Stdout:
                def write(self, text):
                    if text.startswith("listening on ") and "at_bind" not in seen:
                        seen["at_bind"] = repro_modules()
                        base = text.split("listening on ", 1)[1].strip()
                        threading.Thread(target=campaign, args=(base,)).start()
                    return len(text)
                def flush(self):
                    pass

            sys.stdout = Stdout()
            seen["status"] = repro.cli.main([
                "serve", "--port", "0", "--ledger", sys.argv[2]])
            report(seen)
            """,
            tmp_path, str(tmp_path / "ledger.jsonl"),
        )
        assert got["status"] == 0 and got["state"] == "done"
        assert {"repro.experiments.runner", *NETWORKS} <= set(got["at_bind"])
        assert got["after"] == got["at_bind"]

    def test_a_forked_worker_imports_nothing_its_supervisor_had_not(self, tmp_path):
        """Pool workers are forked: what the supervisor's module-level
        imports loaded is what a worker starts with, and a unit that
        imported anything more would pay for it in every worker (and
        not at all under the in-process path, so nothing else would
        notice).  The wrappers are installed before the pool exists, so
        the forked workers inherit them: one writes a worker's modules
        as it starts, the other after every unit."""
        got = run_child(
            """
            import repro.cli
            from repro.experiments import supervisor

            def note(stage):
                with open(f"{sys.argv[2]}.{os.getpid()}", "a") as handle:
                    handle.write(json.dumps([stage, repro_modules()]) + "\\n")

            def worker_main(*args, inner=supervisor._worker_main):
                note("fork")
                return inner(*args)

            def run_unit(*args, inner=supervisor.run_unit):
                try:
                    return inner(*args)
                finally:
                    note("unit")

            supervisor._worker_main, supervisor.run_unit = worker_main, run_unit
            report({"status": repro.cli.main(sys.argv[3:]), "pid": os.getpid()})
            """,
            tmp_path, str(tmp_path / "worker"),
            *TINY, "--workers", "2", "--instances", "3", "fig2",
        )
        assert got["status"] == 0
        logs = sorted(tmp_path.glob("worker.*"))
        assert f"worker.{got['pid']}" not in [log.name for log in logs]
        assert len(logs) == 2
        units = 0
        for log in logs:
            (first, at_fork), *later = map(json.loads, log.read_text().splitlines())
            assert first == "fork"
            assert {"repro.experiments.runner", *NETWORKS} <= set(at_fork)
            for stage, modules in later:
                assert stage == "unit" and modules == at_fork
            units += len(later)
        assert units == 12

    def test_the_bench_wrappers_reach_every_target(self, tmp_path):
        """``bench/tracing.py`` wraps its targets where the name is
        looked up, through ``vars(owner)[name]`` — which a lazy module
        attribute does not serve.  All 23 resolve, the two that live in
        ``repro.cli`` record their spans when a command runs (so the
        commands reach them as that module's globals), and ``remove``
        puts the identical objects back."""
        caida = tmp_path / "graph.txt"
        got = run_child(
            """
            import repro.cli
            from bench import tracing

            def resolved():
                return [tracing._resolve(target)[2] for target in tracing.TARGETS]

            before = resolved()
            tracer = tracing.Tracer()
            installed = tracing.install(tracer)
            wrapped = resolved()
            size, out = sys.argv[2:-1], sys.argv[-1]
            statuses = [
                repro.cli.main([*size, "topology", "--out", out]),
                repro.cli.main([*size, "--instances", "1", "fig2"]),
                repro.cli.main(["--topology-file", out, "--instances", "1", "fig2"]),
            ]
            tracing.remove(installed)
            after = resolved()
            report({
                "targets": len(installed),
                "statuses": statuses,
                "wrapped": sum(a is not b for a, b in zip(before, wrapped)),
                "restored": sum(a is b for a, b in zip(before, after)),
                "spans": sorted({span.name for span in tracer.spans}),
                "generated": sum(s.name == "topology.generate" for s in tracer.spans),
                "loaded": sum(s.name == "topology.load" for s in tracer.spans),
            })
            """,
            tmp_path, *TINY, str(caida),
        )
        assert got["statuses"] == [0, 0, 0]
        assert got["targets"] == got["wrapped"] == got["restored"] == 23
        # `topology` generates through repro.cli's global, the first
        # `fig2` through figures'; the second reads the file instead.
        assert (got["generated"], got["loaded"]) == (2, 1)
        assert {"plane.build", "sim.run", "experiments.unit",
                "experiments.campaign", "analysis.transient"} <= set(got["spans"])


@pytest.fixture(scope="module")
def fresh_packages(tmp_path_factory):
    """package -> the ``repro`` modules importing it loaded, and the
    public names it then held; each import starts from no ``repro``
    module at all."""
    return run_child(
        """
        import importlib

        got = {}
        for package in sys.argv[2:]:
            for name in repro_modules():
                del sys.modules[name]
            module = importlib.import_module(package)
            got[package] = {
                "modules": repro_modules(),
                "names": sorted(n for n in vars(module) if not n.startswith("_")),
            }
        report(got)
        """,
        tmp_path_factory.mktemp("fresh"), *PACKAGES,
    )


@pytest.mark.parametrize("package", PACKAGES)
class TestAPackageServesNoName:
    def test_importing_it_loads_only_it_and_its_parents(
        self, package, fresh_packages
    ):
        parts = package.split(".")
        parents = [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
        assert fresh_packages[package]["modules"] == sorted(parents)

    def test_freshly_imported_it_holds_no_public_name(
        self, package, fresh_packages
    ):
        assert fresh_packages[package]["names"] == []

    def test_an_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not {"__getattr__", "__dir__", "__all__"} & set(vars(module))
        with pytest.raises(AttributeError, match=f"module '{package}' has no"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name")

    def test_a_star_import_binds_only_submodules(self, package):
        """Once every submodule is imported the package holds them as
        attributes; a star import binds those and nothing a submodule
        defines."""
        module = importlib.import_module(package)
        for info in pkgutil.iter_modules(module.__path__):
            importlib.import_module(f"{package}.{info.name}")
        namespace = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert namespace
        for name, value in namespace.items():
            assert getattr(value, "__name__", None) == f"{package}.{name}", name
