"""Child-process measurement: wall, CPU and peak RSS of a command tree.

Every measured command runs in a fresh child (``os.wait4`` gives the
user+sys CPU of the whole reaped tree and the largest process's
``ru_maxrss``), because in-process repetition would hand later rounds
warm module caches a CLI user never has.  Also here: the host-noise
calibration kernel and the host description written into result files.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: No single child may outlive this; the driver allows a run 180 s.
CHILD_TIMEOUT_S = 120.0


def child_env() -> Dict[str, str]:
    """Environment of every measured child: the program, hash-seed pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(*args: object) -> List[str]:
    """``python -m repro.cli <args>`` — the public command users run."""
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


@dataclass
class ChildResult:
    """One finished child: what a user saw and what it cost the host."""

    argv: List[str]
    status: int
    stdout: bytes
    stderr_tail: str
    wall_s: float
    cpu_s: float
    rss_mb: float

    @property
    def ok(self) -> bool:
        return self.status == 0


def rss_mb(rusage) -> float:
    """Peak RSS of the largest reaped process (Linux reports KiB)."""
    return rusage.ru_maxrss / 1024.0


def cpu_s(rusage) -> float:
    """user+sys CPU of the whole reaped tree."""
    return rusage.ru_utime + rusage.ru_stime


def reap(process: subprocess.Popen):
    """``wait4`` a Popen child; returns ``(exit_status, rusage)``.

    ``Popen.wait`` would discard the rusage; after this the Popen
    object knows its return code, so its destructor stays quiet.
    """
    _, raw, rusage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(raw)
    return process.returncode, rusage


def run_child(
    argv: Sequence[str],
    state_dir: Path,
    *,
    timeout: float = CHILD_TIMEOUT_S,
) -> ChildResult:
    """Run one command to completion in a fresh child and measure it."""
    stderr_path = Path(state_dir) / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(
            list(argv), env=child_env(), cwd=str(ROOT),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
        )
        watchdog = threading.Timer(timeout, process.kill)
        watchdog.start()
        try:
            stdout = process.stdout.read()
            status, rusage = reap(process)
        finally:
            watchdog.cancel()
            process.stdout.close()
        wall = time.perf_counter() - started
    tail = stderr_path.read_text(errors="replace")[-2000:]
    return ChildResult(
        argv=list(argv), status=status, stdout=stdout, stderr_tail=tail,
        wall_s=wall, cpu_s=cpu_s(rusage), rss_mb=rss_mb(rusage),
    )


# ----------------------------------------------------------------------
# Host noise
# ----------------------------------------------------------------------


#: The calibration kernel's time on an undisturbed core of the host
#: class this benchmark was set up on.  Times are reported at this
#: speed (see :class:`Pace`).
REFERENCE_CALIBRATION_MS = 50.0


def _kernel_ms() -> float:
    started = time.perf_counter()
    table: Dict[int, int] = {}
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) % 1_000_003
        table[x & 1023] = i
    return (time.perf_counter() - started) * 1e3


def calibration_ms() -> float:
    """Time a fixed pure-Python kernel (~50 ms on an undisturbed core).

    Four quarter-size runs, four times their median: the host now and
    then freezes the VM for a few hundred ms, and one such stall inside
    a pace sample would mis-scale both operations it brackets.
    """
    return 4.0 * statistics.median(_kernel_ms() for _ in range(4))


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and so every child it starts, to one CPU.

    Each vCPU of this host is disturbed on its own (half the time one
    runs ~1.5x slower than the other), so a pace sample only speaks for
    an operation that ran on the same one.  The price: the pool's two
    workers share a core, so ``fig2_pool_ledger`` measures the pool's
    machinery, not a fan-out speed-up this box could not show steadily
    anyway.  Returns the CPU, or ``None`` where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Pace:
    """How much slower than the reference the host ran each operation.

    Each vCPU of this host (a 2-vCPU microVM) flips between an
    undisturbed state and one ~1.6x slower, every few seconds, in a mix
    that drifts from 15% to 85% disturbed over the hour; CPU time
    inflates with wall time and the guest sees no steal.  A
    best-of-rounds wall is therefore off by up to 60% whenever a run
    finds no undisturbed window.  The calibration kernel slows by the
    same factor as the program (pure Python, both, on the same pinned
    CPU), so each operation is bracketed by two samples taken while
    nothing else runs — the sample after one operation is the sample
    before the next — and its wall and CPU are divided by the slowdown
    they show.
    """

    def __init__(self) -> None:
        self.samples = [calibration_ms()]

    def slowdown(self) -> float:
        """Call right after an operation: its slowdown vs the reference."""
        before = self.samples[-1]
        self.samples.append(calibration_ms())
        return (before + self.samples[-1]) / 2.0 / REFERENCE_CALIBRATION_MS


def _filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux), or 'unknown'."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best = ("", "unknown")
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best[0]):
            best = (mount, fields[2])
    return best[1]


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no git subprocess: the
    driver's checkout is not a repository and git would search upwards)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def host_meta(state_dir: Path, calibrations: Sequence[float]) -> Dict[str, object]:
    """The ``meta`` block of a result file: host, versions, noise record."""
    best = min(calibrations)
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "host.calibration_ms": list(calibrations),
        "host.noise_ratio": statistics.median(calibrations) / best,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(affinity(0)) if affinity else None,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "state_fs": _filesystem_type(state_dir),
        "git_commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# Best-of-rounds
# ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> Dict[str, object]:
    """Every round's value with its median and quartiles, for the record."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "rounds": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def percentile(values: Sequence[float], share: float) -> Optional[float]:
    """Nearest-rank percentile (``share`` in 0..1) of a sample."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
