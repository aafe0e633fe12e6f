"""Smoke tests for the command-line interface."""

import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.experiments.runner import PROTOCOL_LABELS, PROTOCOLS
from repro.experiments.scenarios import CAMPAIGNS

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

#: A documented command line: ``repro-stamp ARGS`` or ``python -m
#: repro.cli ARGS``, optionally behind an environment assignment.
_COMMAND_LINE = re.compile(
    r"(?:[A-Z_]+=\S+\s+)?(?:repro-stamp|python -m repro\.cli)\s+"
)

#: Where a documented command line ends and the shell takes over.
_SHELL_OPS = frozenset({"&", "&&", "|", "||", ";"})


def _documented_command_lines():
    """``(where, argv)`` of every command line the project documents.

    A line counts when it *starts* with the command (code blocks,
    comment lines of the examples), so prose that merely names a
    command is left alone.
    """
    sources = [("repro.cli", repro.cli.__doc__)] + [
        (str(path.relative_to(ROOT)), path.read_text())
        for path in [
            ROOT / "README.md",
            *sorted(ROOT.glob("docs/*.md")),
            *sorted(ROOT.glob("examples/*.py")),
        ]
    ]
    for where, text in sources:
        pending = ""
        for raw in text.splitlines():
            line = pending + raw.strip().lstrip("#").strip()
            if line.endswith("\\"):
                pending = line[:-1] + " "
                continue
            pending = ""
            match = _COMMAND_LINE.match(line)
            if match:
                words = shlex.split(line[match.end():], comments=True)
                yield where, list(
                    itertools.takewhile(lambda w: w not in _SHELL_OPS, words)
                )


def test_cli_and_service_start_on_the_standard_library_alone():
    """Neither entry point may pull numpy in, installed or not — it was
    ~70% of every CLI start-up.  A fresh interpreter, because pytest
    plugins may have imported numpy into this one already."""
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import repro.cli, repro.service.app, sys; "
            "sys.exit('numpy' in sys.modules)",
        ],
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert probe.returncode == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_default_scale_arguments(self):
        args = build_parser().parse_args(["fig1"])
        assert args.instances == 10
        assert args.tier1 == 8

    def test_every_documented_command_line_parses(self):
        """Usage lines are documentation that ran once and then rotted
        (global options after the subcommand exit 2): every command line
        of the module docstring, README, the guides and the examples —
        ``\\`` continuations joined — must parse."""
        lines = list(_documented_command_lines())
        assert sum(where == "repro.cli" for where, _ in lines) >= 15
        assert {where for where, _ in lines} >= {
            "README.md", "docs/service.md", "examples/quickstart.py",
        }
        for where, argv in lines:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 0 and "--help" in argv, (where, argv)
            else:
                assert args.command in repro.cli._COMMANDS, (where, argv)

    def test_campaign_names_agree_everywhere(self):
        """One catalogue: its keys are the CLI's campaign subcommands
        and the service's spec kinds, same names, same order."""
        from repro.service.spec import KINDS

        subcommands = [
            name for name, handler in repro.cli._COMMANDS.items()
            if handler is repro.cli.cmd_campaign
        ]
        assert subcommands == list(KINDS) == list(CAMPAIGNS)


TINY = [
    "--tier1", "3", "--tier2", "6", "--tier3", "10", "--stubs", "20",
    "--instances", "1",
]


class TestCommands:
    def test_fig1(self, capsys):
        assert main(TINY + ["fig1"]) == 0
        out = capsys.readouterr().out
        assert "mean Phi" in out

    def test_fig2(self, capsys):
        assert main(TINY + ["fig2"]) == 0
        assert "STAMP" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind", [kind for kind in CAMPAIGNS if kind != "fig2"]
    )
    def test_every_other_campaign_kind_charts_four_planes(
        self, kind, capsys
    ):
        assert main(TINY + [kind]) == 0
        out = capsys.readouterr().out
        title, *bars = out.splitlines()[:5]
        assert title and "|" not in title
        assert [bar.split("|")[0].strip() for bar in bars] == [
            PROTOCOL_LABELS[p] for p in PROTOCOLS
        ]
        assert all(bar.endswith(" ASes") for bar in bars)
        assert ("phase 0" in out) == (
            CAMPAIGNS[kind].phase_legend is not None
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--flaps", "0"], "a flap episode needs at least one flap"),
            (["--period", "0"], "flap period must be positive"),
            (["--period", "-1"], "flap period must be positive"),
            (["--period", "inf"], "flap period must keep every offset finite"),
            (["--period", "1e308"], "flap period must keep every offset finite"),
        ],
    )
    def test_keywords_the_builder_refuses_are_a_usage_error(
        self, flags, message, tmp_path, capsys, monkeypatch
    ):
        """Regression: the builder raised inside every unit, each unit
        was retried after a back-off as if the fault were transient,
        an empty chart was printed and the exit status was 0.  The
        campaign is refused before the grid starts — the builder's own
        message, exit 2 like an argparse error, no unit attempted and
        no ledger created (the service's 400 for the same values is
        ``tests/service/test_spec.py``'s)."""
        from repro.experiments import supervisor

        def no_unit(*args, **kwargs):
            raise AssertionError("a unit was attempted")

        monkeypatch.setattr(supervisor, "run_unit", no_unit)
        ledger = tmp_path / "ledger.jsonl"
        argv = TINY + ["--ledger", str(ledger), "flap"] + flags
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro-stamp flap: error: {message}\n"
        assert not ledger.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "2", "--retries", "0", "--unit-timeout", "0",
              "--instances", "2"],
             "unit_timeout must be a positive number of seconds, got 0.0"),
            (["--workers", "2", "--retries", "0", "--unit-timeout", "-5",
              "--instances", "2"],
             "unit_timeout must be a positive number of seconds, got -5.0"),
            (["--retries", "-1"], "retries must be >= 0, got -1"),
            (["--instances", "0"], "n_instances must be >= 1, got 0"),
            (["--instances", "-2"], "n_instances must be >= 1, got -2"),
            (["--workers", "-3"], "workers must be >= 1, got -3"),
        ],
    )
    @pytest.mark.parametrize("command", ["fig2", "overhead", "delay"])
    def test_execution_settings_out_of_range_are_a_usage_error(
        self, command, flags, message, tmp_path, capsys, monkeypatch
    ):
        """Regression: a zero or negative ``--unit-timeout`` charged
        every unit a timeout and exited 0 with an all-failure report,
        ``--retries -1`` was a traceback, ``--instances 0`` an empty
        chart and ``--workers -3`` ran.  The service's spec refuses the
        same values; the CLI refuses them in one line with exit 2,
        before any unit runs or the ledger is created."""
        from repro.experiments import supervisor

        def no_unit(*args, **kwargs):
            raise AssertionError("a unit was attempted")

        monkeypatch.setattr(supervisor, "run_unit", no_unit)
        ledger = tmp_path / "ledger.jsonl"
        argv = [
            "--tier2", "4", "--tier3", "6", "--stubs", "10",
            "--ledger", str(ledger), *flags, command,
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro-stamp {command}: error: {message}\n"
        assert not ledger.exists()

    def test_the_daemon_refuses_a_worker_total_below_one(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        argv = ["--workers", "0", "serve", "--ledger", str(ledger), "--port", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "repro-stamp serve: error: workers must be >= 1, got 0\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        ["fig1", *CAMPAIGNS, "intelligent", "deployment", "overhead", "delay"],
    )
    @pytest.mark.parametrize("topology", ["missing", "directory", "garbage"])
    def test_an_unusable_topology_file_is_a_usage_error(
        self, command, topology, tmp_path, capsys
    ):
        """Regression: a mistyped ``--topology-file`` was a raw
        ``FileNotFoundError`` traceback and a malformed one a raw
        ``CAIDAFormatError`` traceback from inside ``load_caida``.  One
        line on stderr and exit 2, for every command that reads the
        flag, before anything ran."""
        path = tmp_path / "as-rel.txt"
        if topology == "directory":
            path.mkdir()
        elif topology == "garbage":
            path.write_text("garbage|x|y\n")
        ledger = tmp_path / "ledger.jsonl"
        argv = ["--topology-file", str(path), "--ledger", str(ledger), command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"repro-stamp {command}: error: "
        assert captured.err.startswith(prefix)
        assert captured.err.count("\n") == 1  # no traceback
        reason = {
            "missing": "No such file or directory",
            "directory": "Is a directory",
            "garbage": "line 1: non-integer field: 'garbage|x|y'",
        }[topology]
        assert reason in captured.err
        assert not ledger.exists()

    def test_intelligent(self, capsys):
        assert main(TINY + ["intelligent"]) == 0
        assert "intelligent" in capsys.readouterr().out

    def test_deployment(self, capsys):
        assert main(TINY + ["deployment"]) == 0
        assert "tier-1" in capsys.readouterr().out

    def test_topology_writes_file(self, tmp_path, capsys):
        out = tmp_path / "graph.txt"
        assert main(TINY + ["topology", "--out", str(out)]) == 0
        assert out.exists()
        from repro.topology.caida import load_caida

        graph = load_caida(out).graph
        assert len(graph) == 39


class TestLedgerCommands:
    def _fill(self, path, keys):
        from repro.experiments.ledger import ResultLedger

        with ResultLedger(path) as ledger:
            for key in keys:
                ledger.put(key, {"k": key})

    def test_stats(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._fill(path, ["a", "b"])
        assert main(["ledger", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "repro-unit-v2" in out

    def test_compact_with_bounds(self, tmp_path, capsys):
        from repro.experiments.ledger import ResultLedger

        path = tmp_path / "ledger.jsonl"
        self._fill(path, [f"k{i}" for i in range(5)])
        assert main(
            ["ledger", "compact", str(path), "--max-bytes", "400"]
        ) == 0
        assert "evicted" in capsys.readouterr().out
        with ResultLedger(path) as ledger:
            assert 0 < len(ledger) < 5

    def test_merge(self, tmp_path, capsys):
        from repro.experiments.ledger import ResultLedger

        self._fill(tmp_path / "a.jsonl", ["a1", "shared"])
        self._fill(tmp_path / "b.jsonl", ["b1", "shared"])
        out = tmp_path / "merged.jsonl"
        assert main([
            "ledger", "merge", str(out),
            str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]) == 0
        assert "merged 3 record(s)" in capsys.readouterr().out
        with ResultLedger(out) as merged:
            assert sorted(merged.keys()) == ["a1", "b1", "shared"]

    def test_merge_refusal_is_exit_one(self, tmp_path, capsys):
        self._fill(tmp_path / "a.jsonl", ["a1"])
        assert main([
            "ledger", "merge", str(tmp_path / "out.jsonl"),
            str(tmp_path / "a.jsonl"), str(tmp_path / "missing.jsonl"),
        ]) == 1
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("log", ["ledger", "journal"])
    @pytest.mark.parametrize("action", ["stats", "compact"])
    def test_a_mistyped_path_is_not_an_empty_log(
        self, log, action, tmp_path, capsys
    ):
        """Regression: ``stats`` of a path that does not exist printed
        an all-zero table and exited 0, and ``ledger compact`` *created*
        a 52-byte ledger at the typo.  Refused in one line and exit 1,
        as ``ledger merge`` refuses a missing input; nothing created."""
        path = tmp_path / "typo.jsonl"
        assert main([log, action, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {log} does not exist: {path}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_campaign_still_creates_the_ledger_it_names(
        self, tmp_path, capsys
    ):
        path = tmp_path / "new.jsonl"
        assert main(TINY + ["--ledger", str(path), "fig2"]) == 0
        capsys.readouterr()
        assert main(["ledger", "stats", str(path)]) == 0
        assert "records         4\n" in capsys.readouterr().out


class TestExit:
    """A finished command leaves its heap to the operating system."""

    def test_the_final_collection_skips_a_finished_campaign(self, tmp_path):
        """The child registers a probe before it imports ``repro.cli``;
        ``atexit`` runs last-in first-out, so the probe runs after the
        CLI's hook and sees the heap frozen.  Nothing is lost by not
        collecting it: a second child reads every record back."""
        ledger = tmp_path / "ledger.jsonl"
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "import repro.cli\n"
            f"sys.exit(repro.cli.main({TINY + ['--ledger', str(ledger), 'fig2']!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        last = child.stdout.splitlines()[-1].split()
        assert last[0] == "frozen" and int(last[1]) > 0
        stats = subprocess.run(
            [sys.executable, "-m", "repro.cli", "ledger", "stats", str(ledger)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert stats.returncode == 0, stats.stderr
        assert "records         4\n" in stats.stdout
        assert "dropped_records 0\n" in stats.stdout


class TestServeParser:
    def test_serve_requires_a_ledger(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self, monkeypatch):
        """What ``serve`` runs with no flags, read off the config it
        builds: the flags restate no default of their own."""
        import repro.service.app

        served = []
        monkeypatch.setattr(
            repro.service.app, "run_service",
            lambda host, port, config: served.append((host, port, config)) or 0,
        )
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        assert main(["serve", "--ledger", "l.jsonl"]) == 0
        [(host, port, config)] = served
        assert host == "127.0.0.1"
        assert port == 8421
        assert config.ledger_path == "l.jsonl"
        assert config.journal_path == "l.jsonl.journal"
        assert config.workers == 1
        assert config.max_queue == 8
        assert config.max_concurrent == 2
        assert config.journal_max_bytes is None  # rotation off by default
        assert config.auth_token is None  # open by default
        limits = config.limits
        assert limits.max_workers == 8
        assert limits.max_instances == 1000
        assert limits.max_total_ases == 20000
        assert limits.max_retries == 5
        assert limits.max_unit_timeout == 900.0

    def test_serve_passes_the_flags_it_is_given(self, monkeypatch):
        import repro.service.app

        served = []
        monkeypatch.setattr(
            repro.service.app, "run_service",
            lambda host, port, config: served.append(config) or 0,
        )
        assert main([
            "serve", "--ledger", "l.jsonl", "--max-queue", "3",
            "--max-concurrent", "4", "--max-workers", "5",
            "--max-unit-timeout", "60",
        ]) == 0
        [config] = served
        assert (config.max_queue, config.max_concurrent) == (3, 4)
        assert config.limits.max_workers == 5
        assert config.limits.max_unit_timeout == 60.0
        assert config.limits.max_instances == 1000

    def test_journal_subcommands_parse(self):
        args = build_parser().parse_args(["journal", "stats", "j.jsonl"])
        assert args.journal_command == "stats" and args.path == "j.jsonl"
        args = build_parser().parse_args(
            ["journal", "compact", "j.jsonl", "--max-age-seconds", "60"]
        )
        assert args.journal_command == "compact"
        assert args.max_age_seconds == 60.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["journal"])  # subcommand required
