"""Child-process launcher for the ``interevent`` CLI, and the machine record.

Children run one at a time in a scratch working directory with the
*absolute* ``src`` path on ``PYTHONPATH``: a relative ``src`` would resolve
against the child's working directory and the import would fail there.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 170.0


class Launcher:
    """Runs ``python -m interevent`` (or ``python -c``) and records each exit."""

    def __init__(self, src: Path):
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src.resolve()) + (os.pathsep + inherited if inherited else "")
        self.exits: list[dict] = []

    def run(self, args: list[str], label: str, cwd: Path) -> subprocess.CompletedProcess:
        """Run one child to completion and return the finished process.

        Raises ``OSError`` when the child cannot start and
        ``subprocess.TimeoutExpired`` (after killing and reaping it) when it hangs.
        """
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=cwd,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        self.exits.append({"label": label, "code": proc.returncode, "stderr": proc.stderr[-400:]})
        return proc

    def cli(self, argv: list[str], label: str, cwd: Path):
        return self.run(["-m", "interevent", *argv], label, cwd)


def count_notes(stderr_text: str) -> int:
    return sum(1 for line in stderr_text.splitlines() if line.startswith("note:"))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def limit_cores(limit: int = 2) -> int:
    """Pin this process, and so its children, to at most ``limit`` CPUs."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
    if len(cpus) > limit:
        os.sched_setaffinity(0, cpus[:limit])
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module) -> str:
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    # a checkout without its own .git may sit inside an unrelated repository
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def machine_record(root: Path, cores_used: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cores_used": cores_used,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "git_commit": _git_commit(root),
    }
