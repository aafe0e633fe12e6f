#!/usr/bin/env python
"""One answer from every interpreter: the cross-version determinism check.

The product (``src/``) is standard library only, so it runs on any
CPython from 3.10 on even where pytest is not installed.  This script
runs the same commands under every interpreter it can find, each under
two hash seeds, and requires **one sha256 per command** across all of
them:

* ``--help`` (compared with runs of whitespace collapsed: argparse 3.13
  wraps the usage line differently, every word is the program's),
* ``topology --out`` (stdout and the file written),
* ``--instances 3 fig2``, ``--instances 2 flap --flaps 4`` and
  ``--workers 2 --instances 3 node-failure`` (in-process and pooled),
* ``from repro import *`` (the names a lazy package hands out),
* and a ledger written by one interpreter answered by the next one
  under the other hash seed: same chart, not one byte appended — zero
  recomputed units, so pickled results cross versions.

Interpreters are looked up with ``pyenv prefix VERSION``, then as
``pythonX.Y`` on ``PATH`` (what ``actions/setup-python`` provides); the
ones not found are skipped, loudly.  Exit status 1 on any second digest
or failed command.  Usage::

    python benchmarks/check_interpreters.py
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"
VERSIONS = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")
HASH_SEEDS = ("0", "7")
FIG2 = ["--instances", "3", "fig2"]
CLI_COMMANDS: Dict[str, List[str]] = {
    "help": ["--help"],
    "topology": ["topology", "--out", "graph.txt"],
    "fig2": FIG2,
    "flap": ["--instances", "2", "flap", "--flaps", "4"],
    "node-failure": ["--workers", "2", "--instances", "3", "node-failure"],
}
STAR_IMPORT = (
    "from repro import *; import repro; "
    "print([name for name in repro.__all__ if name in globals()])"
)


def find_interpreter(version: str) -> Optional[str]:
    """Path of the CPython ``version`` asks for, or None."""
    try:
        prefix = subprocess.run(
            ["pyenv", "prefix", version], capture_output=True, text=True
        )
    except OSError:  # no pyenv on this host
        prefix = None
    if prefix is not None and prefix.returncode == 0:
        return str(Path(prefix.stdout.strip()) / "bin" / "python")
    return shutil.which("python" + version.rsplit(".", 1)[0])


class Outcomes:
    """command -> digest -> the runs that produced it; and what failed."""

    def __init__(self) -> None:
        self.digests: Dict[str, Dict[str, List[str]]] = {}
        self.failures: List[str] = []

    def run(
        self, command: str, label: str, python: str, hash_seed: str,
        argv: Sequence[str], cwd: Path,
    ) -> None:
        """Run one child in ``cwd`` and file its digest under ``command``."""
        env = {
            "PATH": os.environ.get("PATH", ""),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": hash_seed,
            "PYTHONDONTWRITEBYTECODE": "1",
            "COLUMNS": "80",
        }
        child = subprocess.run(
            [python, *argv], cwd=cwd, env=env, capture_output=True,
        )
        if child.returncode != 0:
            self.failures.append(
                f"{command} [{label}] exited {child.returncode}: "
                f"{child.stderr.decode(errors='replace').strip()[-300:]}"
            )
            return
        content = child.stdout
        if command == "help":
            content = b" ".join(content.split())
        if command == "topology":
            content += (cwd / "graph.txt").read_bytes()
        digest = hashlib.sha256(content).hexdigest()
        self.digests.setdefault(command, {}).setdefault(digest, []).append(label)


def check_ledger_crosses(outcomes: Outcomes, found: Dict[str, str], tmp: Path) -> None:
    """Each interpreter's ledger, answered by the next one's rerun."""
    versions = list(found)
    for index, writer in enumerate(versions):
        reader = versions[(index + 1) % len(versions)]
        cwd = tmp / f"ledger-{writer}"
        cwd.mkdir()
        argv = ["-m", "repro.cli", "--ledger", "ledger.jsonl", *FIG2]
        label = f"{writer} writes"
        outcomes.run("fig2", label, found[writer], HASH_SEEDS[0], argv, cwd)
        ledger = cwd / "ledger.jsonl"
        if not ledger.exists():
            continue  # the writer failed and said so above
        written = ledger.read_bytes()
        label = f"{reader} reads {writer}'s ledger"
        outcomes.run("fig2", label, found[reader], HASH_SEEDS[1], argv, cwd)
        if ledger.read_bytes() != written:
            outcomes.failures.append(
                f"ledger [{label}]: {len(ledger.read_bytes()) - len(written)} "
                "byte(s) appended — units were recomputed"
            )


def main() -> int:
    found: Dict[str, str] = {}
    for version in VERSIONS:
        python = find_interpreter(version)
        if python is None:
            print(f"SKIPPED: no CPython {version} (pyenv prefix / PATH)")
        else:
            found[version] = python
    if not found:
        print("no interpreter found: nothing was checked")
        return 1
    outcomes = Outcomes()
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        for version, python in found.items():
            for hash_seed in HASH_SEEDS:
                label = f"{version} seed {hash_seed}"
                cwd = tmp / label.replace(" ", "-")
                cwd.mkdir()
                for command, argv in CLI_COMMANDS.items():
                    outcomes.run(
                        command, label, python, hash_seed,
                        ["-m", "repro.cli", *argv], cwd,
                    )
                outcomes.run(
                    "star-import", label, python, hash_seed,
                    ["-c", STAR_IMPORT], cwd,
                )
        check_ledger_crosses(outcomes, found, tmp)
    status = 0
    for command, digests in outcomes.digests.items():
        runs = sum(len(labels) for labels in digests.values())
        if len(digests) == 1:
            print(f"{command:13s} {next(iter(digests))}  ({runs} runs)")
            continue
        status = 1
        print(f"{command:13s} {len(digests)} DIGESTS over {runs} runs:")
        for digest, labels in digests.items():
            print(f"  {digest}  {', '.join(labels)}")
    for failure in outcomes.failures:
        status = 1
        print(f"FAILED: {failure}")
    print(
        f"{len(found)} interpreter(s) x {len(HASH_SEEDS)} hash seeds: "
        + ("one digest per command" if status == 0 else "MISMATCH")
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
