"""Shared helpers: statistics, units of work, set-up timing, isolation.

Nothing here imports ``repro``: ``run.py`` scrubs the environment and
puts ``src/`` on the path before the simulator is first imported.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The repository root (this file lives in ``<root>/perfbench``).
ROOT = HERE.parent
SRC = ROOT / "src"

#: Scratch space for temp caches/queues and span dumps (gitignored).
OUT = HERE / "out"

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Set-up repetitions per untraced run; ``setup_s`` takes their median.
SETUP_REPS = 3


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with >= 10 beyond.

    Of ``n`` sorted samples, the value at 0-based rank ``n - 11`` has
    exactly ten samples above it, so it is the highest percentile that
    still rests on ten or more larger samples; its percentile is
    ``100 * (n - 10) / n``. With ten samples or fewer no percentile has
    ten beyond it, and the median (percentile 50) is reported instead.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return median(values), 50.0, n
    ordered = sorted(values)
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (average ranks for ties); 0 if undefined."""
    if len(xs) != len(ys) or len(xs) < 2:
        return 0.0

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def units_for(seconds: float, nominal_s: float) -> int:
    """How many units of work a run of ``seconds`` measures (at least one).

    The count comes from a fixed nominal cost per unit, never from the
    clock, so a run does the same work on every commit: a faster commit
    finishes sooner instead of doing more, and sample counts (and with
    them the tail percentile) stay comparable.
    """
    return max(1, round(seconds / nominal_s))


def import_seconds(module: str, reps: int = 3) -> float:
    """Median wall time to import a workload module in a fresh interpreter.

    The import cost of ``setup_s``: measured in separate processes, each
    waited for, because a module imports only once per process.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def scrub_repro_env() -> list[str]:
    """Drop every ``REPRO_*`` variable from this process's environment.

    Workers inherit a copy of the scrubbed environment, so neither the
    benchmark nor its fleet can be steered by a developer's shell
    (``REPRO_FAULTPOINTS``, ``REPRO_BATCH``, ``REPRO_FIDELITY``,
    ``REPRO_BROKER_*``, ...). Returns the names dropped.
    """
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    return dropped


def source_identity() -> tuple[str, str]:
    """``(commit, src digest)`` of the code under measurement.

    The commit is ``unknown`` outside a git checkout; the digest (SHA-256
    over every ``src/**/*.py`` path and content) identifies the code
    either way.
    """
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]
