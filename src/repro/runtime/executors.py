"""Pluggable executor backends for the experiment runtime.

:class:`~repro.runtime.runner.ExperimentRuntime` resolves cache hits
itself; everything that is left — the actual simulation misses — is handed
to an :class:`ExecutorBackend` as one batch. A backend only decides
*where* a job body runs; job inputs and result values are identical across
backends, so serial, process-pool and broker runs are bit-identical (the
engine is deterministic and every job is self-contained).

Three backends ship:

``serial``
    Every job runs in the submitting process, one after another. No
    dependencies, no subprocesses — the reference executor.

``pool``
    Today's process pool, extracted from the runtime: jobs fan out over a
    ``ProcessPoolExecutor`` of ``jobs`` workers. Under ``fork`` the
    distinct workloads are pre-built once so children inherit them
    copy-on-write; a configured trace store is exported through the
    environment so ``spawn`` workers resolve the same store.

``broker``
    The file-based distributed queue (:mod:`repro.runtime.broker`): jobs
    are enqueued under ``<cache-dir>/queue/`` and *stolen* by any number
    of worker processes — started locally with
    ``python -m repro.runtime worker`` or on other machines sharing the
    filesystem. The submitting process steals work too by default, so a
    broker run completes even with zero external workers.

``auto`` (the default) picks ``pool`` when ``jobs > 1`` and ``serial``
otherwise — exactly the pre-backend behaviour.

Backend selection is by name via ``--backend`` / ``REPRO_BACKEND``,
resolved and checked by :func:`repro.envopts.resolve`, whose error lists
every valid name.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..envopts import REPRO_ENV_OPTIONS, exported, resolve
from ..errors import ConfigError
from ..workloads.workload import load_workload, trace_store_env_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from ..core.results import SimulationResult
    from .runner import SimJob

#: Every name ``--backend`` / ``REPRO_BACKEND`` accepts.
BACKEND_NAMES: tuple[str, ...] = REPRO_ENV_OPTIONS["REPRO_BACKEND"].choices


@runtime_checkable
class ExecutorBackend(Protocol):
    """Executes one batch of simulation jobs; see module docstring."""

    #: Backend name as selected (``serial`` / ``pool`` / ``broker``).
    name: str

    def run_batch(self, jobs: list["SimJob"]) -> list["SimulationResult"]:
        """Execute every job; results align with ``jobs`` order."""
        ...

    def telemetry(self) -> dict:
        """Post-batch execution metadata (merged into runtime metrics)."""
        ...


class SerialBackend:
    """Run every job in the current process, in submission order."""

    name = "serial"

    def run_batch(self, jobs: list["SimJob"]) -> list["SimulationResult"]:
        from .runner import execute_job

        return [execute_job(job) for job in jobs]

    def telemetry(self) -> dict:
        return {}


class ProcessPoolBackend:
    """Fan a batch out over a ``ProcessPoolExecutor``.

    Falls back to serial execution for single-job batches, ``max_workers
    == 1``, or platforms where process pools are unavailable (restricted
    sandboxes raise ``OSError`` on pool start) — the result values are
    identical either way.
    """

    name = "pool"

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigError("pool backend needs max_workers >= 1")
        self.max_workers = max_workers
        self._used_pool = False

    def run_batch(self, jobs: list["SimJob"]) -> list["SimulationResult"]:
        from .runner import execute_job

        self._used_pool = False
        if self.max_workers > 1 and len(jobs) > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()  # spawn-only platform
            if ctx.get_start_method() == "fork":
                # Build each distinct workload once in this process first:
                # forked children then inherit the built CFG and the flat
                # columnar trace copy-on-write instead of regenerating them
                # per worker. (Under spawn, workers start from a fresh
                # interpreter and instead warm up from the persistent trace
                # store when one is configured.)
                for wl, scale in {(j.workload, j.workload_scale) for j in jobs}:
                    load_workload(wl, scale=scale)
            # A store configured via configure_trace_store() — a directory
            # or an explicit disable — lives in a module global that
            # spawn-started workers (fresh interpreters) would never see;
            # export it for the lifetime of the pool ("" = disabled) so
            # every worker resolves the same store regardless of start
            # method, then restore the environment (a leaked value would
            # override later reconfiguration or env changes).
            workers = min(self.max_workers, len(jobs))
            with exported("REPRO_TRACE_STORE", trace_store_env_value()):
                try:
                    with ProcessPoolExecutor(
                        max_workers=workers, mp_context=ctx
                    ) as pool:
                        results = list(pool.map(execute_job, jobs))
                    self._used_pool = True
                    return results
                except OSError:
                    pass  # no pool support (restricted sandbox) — run serially
        return [execute_job(job) for job in jobs]

    def telemetry(self) -> dict:
        return {"pool_workers": self.max_workers if self._used_pool else 1}


def make_backend(
    name: str,
    jobs: int,
    cache_dir: str | os.PathLike | None,
) -> ExecutorBackend:
    """Instantiate the backend ``name`` resolves to.

    ``auto`` picks ``pool`` when ``jobs > 1`` and ``serial`` otherwise.
    The broker needs a shared directory to host its queue, so selecting it
    without a cache dir is a configuration error.
    """
    chosen = resolve("REPRO_BACKEND", name)
    if chosen == "auto":
        chosen = "pool" if jobs > 1 else "serial"
    if chosen == "serial":
        return SerialBackend()
    if chosen == "pool":
        return ProcessPoolBackend(max_workers=jobs)
    if cache_dir is None:
        raise ConfigError(
            "the broker backend needs a shared cache directory for its job "
            "queue: pass --cache-dir or set REPRO_CACHE_DIR"
        )
    from .broker import BrokerBackend

    return BrokerBackend.from_env(cache_dir)
