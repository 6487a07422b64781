"""Experiment runtime: sound config hashing, disk cache, pluggable executors.

Public surface:

* :func:`config_digest` — exhaustive hash of a full ``SimConfig`` tree,
* :class:`ResultCache` — persistent JSON result store (``SCHEMA_TAG``-versioned,
  one file per record),
* ``python -m repro.runtime list|prune`` — the lifecycle of every
  store's schema tags (results, estimates, workload builds), built on
  :mod:`repro.tagdirs`,
* :class:`SimJob` / :class:`ExperimentRuntime` — memoized job execution,
* :class:`ExecutorBackend` and the ``serial`` / ``pool`` / ``broker``
  backends (:data:`BACKEND_NAMES`, selected via ``REPRO_BACKEND``),
* :class:`BrokerQueue` / :class:`BrokerBackend` / :func:`run_worker` — the
  file-based distributed job broker (also ``python -m repro.runtime worker``),
* :class:`Supervisor` / :func:`serve_sweep` / :func:`build_status` — the
  supervised service mode: autoscaled worker fleets and the live status
  dashboard (``python -m repro.runtime status | serve``),
* :func:`get_runtime` / :func:`configure_runtime` / :func:`resolve_options`
  — process-wide instance and the single option-precedence point.

Every name above resolves on first use: importing the package loads none
of its submodules, so ``repro.runtime.SimJob`` loads the runner alone, a
broker worker never loads the supervisor or the process pool, and a
process that only simulates loads none of them.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .broker import BrokerBackend, BrokerQueue, run_worker
    from .cache import SCHEMA_TAG, ResultCache
    from .confighash import canonicalize, config_digest, scale_token
    from .executors import (
        BACKEND_NAMES,
        ExecutorBackend,
        ProcessPoolBackend,
        SerialBackend,
        make_backend,
    )
    from .runner import (
        ExperimentRuntime,
        RuntimeOptions,
        SimJob,
        backend_summary,
        configure_runtime,
        estimate_job_cost,
        execute_job,
        get_runtime,
        resolve_options,
    )
    from .supervisor import (
        Supervisor,
        SupervisorOptions,
        build_status,
        desired_workers,
        render_status,
        serve_sweep,
        supervisor_options,
        sweep_progress,
    )

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(("BrokerBackend", "BrokerQueue", "run_worker"), "broker"),
    **dict.fromkeys(("SCHEMA_TAG", "ResultCache"), "cache"),
    **dict.fromkeys(("canonicalize", "config_digest", "scale_token"), "confighash"),
    **dict.fromkeys(
        ("BACKEND_NAMES", "ExecutorBackend", "ProcessPoolBackend", "SerialBackend",
         "make_backend"),
        "executors",
    ),
    **dict.fromkeys(
        ("ExperimentRuntime", "RuntimeOptions", "SimJob", "backend_summary",
         "configure_runtime", "estimate_job_cost", "execute_job", "get_runtime",
         "resolve_options"),
        "runner",
    ),
    **dict.fromkeys(
        ("Supervisor", "SupervisorOptions", "build_status", "desired_workers",
         "render_status", "serve_sweep", "supervisor_options", "sweep_progress"),
        "supervisor",
    ),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
