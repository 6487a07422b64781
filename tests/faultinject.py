"""Fault-injection harness: real subprocesses, killed at precise moments.

The broker's and the warehouse's crash-safety claims are about processes
dying with *no* chance to clean up — ``finally`` blocks, ``atexit``
handlers and buffered writes all skipped. Asserting that from inside one
pytest process is impossible, so this harness spawns the real entry
points (``python -m repro.runtime worker`` / ``python -m repro.warehouse
refresh``) as subprocesses and kills them two ways:

* **deterministically**, via the ``REPRO_FAULTPOINTS`` environment
  variable (:mod:`repro.runtime.faultpoints`): the subprocess SIGKILLs
  *itself* the Nth time it passes a named point — e.g. the instant after
  claiming a job, or seven changes into a warehouse refresh;
* **externally**, with ``os.kill(pid, SIGKILL)`` once a polled queue
  condition shows the victim mid-flight.

Helpers here never assert; tests in ``tests/test_faults.py`` do.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

#: The repo's import root, so subprocesses resolve the same ``repro``.
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _subprocess_env(
    faultpoints: str | None = None, **extra: object
) -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTPOINTS", None)
    if faultpoints:
        env["REPRO_FAULTPOINTS"] = faultpoints
    for key, value in extra.items():
        env[key] = str(value)
    return env


def spawn_worker(
    cache_dir: os.PathLike,
    worker_id: str = "fi-worker",
    faultpoints: str | None = None,
    drain: bool = False,
    max_idle: float | None = None,
    lease_seconds: float | None = None,
) -> subprocess.Popen:
    """Start a real ``python -m repro.runtime worker`` subprocess."""
    cmd = [
        sys.executable,
        "-m",
        "repro.runtime",
        "worker",
        "--cache-dir",
        str(cache_dir),
        "--worker-id",
        worker_id,
    ]
    if drain:
        cmd.append("--drain")
    if max_idle is not None:
        cmd += ["--max-idle", str(max_idle)]
    extra = {}
    if lease_seconds is not None:
        extra["REPRO_BROKER_LEASE"] = lease_seconds
    return subprocess.Popen(
        cmd,
        env=_subprocess_env(faultpoints, **extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def spawn_warehouse_refresh(
    cache_dir: os.PathLike,
    faultpoints: str | None = None,
) -> subprocess.Popen:
    """Start a real ``python -m repro.warehouse refresh`` subprocess."""
    cmd = [
        sys.executable,
        "-m",
        "repro.warehouse",
        "refresh",
        "--cache-dir",
        str(cache_dir),
    ]
    return subprocess.Popen(
        cmd,
        env=_subprocess_env(faultpoints),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_exit(proc: subprocess.Popen, timeout: float = 180.0) -> int:
    """Block until the subprocess exits; kill and fail loudly on timeout."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode


def wait_for(
    predicate,
    timeout: float = 60.0,
    interval: float = 0.02,
    message: str = "condition",
):
    """Poll ``predicate`` until truthy; raises ``TimeoutError`` otherwise."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"timed out after {timeout}s waiting for {message}")


def sigkill(proc: subprocess.Popen) -> None:
    """The external power-cut: SIGKILL, no signal handlers, no cleanup."""
    os.kill(proc.pid, 9)
