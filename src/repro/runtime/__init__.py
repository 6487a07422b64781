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
"""

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

__all__ = [
    "BACKEND_NAMES",
    "SCHEMA_TAG",
    "BrokerBackend",
    "BrokerQueue",
    "ExecutorBackend",
    "ExperimentRuntime",
    "ProcessPoolBackend",
    "ResultCache",
    "RuntimeOptions",
    "SerialBackend",
    "SimJob",
    "Supervisor",
    "SupervisorOptions",
    "backend_summary",
    "build_status",
    "canonicalize",
    "config_digest",
    "configure_runtime",
    "desired_workers",
    "estimate_job_cost",
    "execute_job",
    "get_runtime",
    "make_backend",
    "render_status",
    "resolve_options",
    "run_worker",
    "scale_token",
    "serve_sweep",
    "supervisor_options",
    "sweep_progress",
]
