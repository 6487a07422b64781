"""Parallel experiment runtime: sound memoization + pluggable executors.

The runtime owns every simulation run the experiment layer performs. It
layers caches and an executor, checked in order:

1. an **in-process memo** (same object returned for repeated lookups, so
   intra-process identity semantics are preserved),
2. an optional **persistent disk cache** (:mod:`repro.runtime.cache`),
3. actual simulation through an **executor backend**
   (:mod:`repro.runtime.executors`): in-process (``serial``), across a
   process pool (``pool``), or work-stealing across independent worker
   processes and machines via the file-based job broker (``broker``,
   :mod:`repro.runtime.broker`).

Keys are ``(workload, scale, config-digest)`` where the digest covers the
*entire* config tree (:mod:`repro.runtime.confighash`); no hand-maintained
field list exists to drift out of sync with :class:`~repro.config.SimConfig`.
The key is process- and machine-agnostic, which is exactly what lets a
remote backend slot in behind :meth:`ExperimentRuntime._execute_batch`.

Batch submission (:meth:`ExperimentRuntime.run_many`) is what the sweep
experiments use: they assemble their full (workload, config) job list up
front, the runtime dedupes it, resolves memo/disk hits, executes only the
misses — on the selected backend — and returns results in submission
order. Results are therefore deterministic and bit-identical regardless of
``jobs`` or backend: the engine itself is deterministic, and the executor
only changes *where* a run executes, never its inputs.

**Option precedence** is decided by :func:`repro.envopts.resolve`, which
:func:`resolve_options` calls once per option: an explicit keyword
argument (or CLI flag, which forwards as one) always beats the
corresponding ``REPRO_*`` environment variable, and the environment
variable beats the registry default (``jobs=1``, no cache dir,
``backend="auto"``). The process-wide default
runtime is configured from ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
``REPRO_BACKEND`` or via :func:`configure_runtime` (the
``python -m repro.experiments --jobs/--cache-dir/--backend`` flags).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from ..config import SimConfig
from ..core import profiling
from ..core.results import SimulationResult
from ..core.simulator import Simulator
from ..envopts import REPRO_ENV_OPTIONS, read_env, resolve
from ..errors import ConfigError
from ..workloads.workload import configure_trace_store, load_workload
from .cache import ANALYTIC_SCHEMA_TAG, ResultCache
from .confighash import config_digest, scale_token
from .executors import make_backend

#: Keys are (workload name, scale token, config digest).
RunKey = tuple[str, str, str]

#: Default fidelity tier (``REPRO_FIDELITY``): every cell exact.
DEFAULT_FIDELITY: str = REPRO_ENV_OPTIONS["REPRO_FIDELITY"].default

#: Default hybrid escalation threshold (``REPRO_ANALYTIC_MAX_ERR``): a
#: series whose self-reported relative error bound exceeds this is
#: re-dispatched to the exact engine under ``--fidelity hybrid``.
DEFAULT_MAX_REL_ERR: float = REPRO_ENV_OPTIONS["REPRO_ANALYTIC_MAX_ERR"].default


@dataclass(frozen=True)
class SimJob:
    """One simulation to perform: a workload name, config and scale."""

    workload: str
    config: SimConfig
    workload_scale: float = 1.0

    @cached_property
    def key(self) -> RunKey:
        """Hashed once per job: the config is frozen, so the key is too."""
        return run_key(self.workload, self.workload_scale, config_digest(self.config))


def run_key(workload: str, workload_scale: float, digest: str) -> RunKey:
    """The key of ``workload`` at ``workload_scale`` under the config
    whose :func:`~repro.runtime.confighash.config_digest` is ``digest``."""
    return (workload, scale_token(workload_scale), digest)


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job in the current process (also the worker entry point)."""
    workload = load_workload(job.workload, scale=job.workload_scale)
    profiler = profiling.active()
    if profiler is not None:
        return profiling.run_profiled_single(workload, job.config, profiler)
    return Simulator(workload, job.config).run()


def estimate_job_cost(job: SimJob) -> int | None:
    """Cost estimate in trace instructions: the job's scaled trace length.

    Simulation host time tracks how many trace instructions a job runs.
    The LLC round trip, which an earlier model multiplied in, barely moves
    it. Measured on 81 cells (fleet, dense-column and profile-matrix
    cells), host time ranked against trace length with Spearman 0.74 and
    against trace length × LLC round trip with −0.06; within one
    workload's dense latency column, latency explained little (0.26).

    The estimate is deterministic (profile table + scale only, no I/O).
    Consumers use its ordering (longest-first claims), its ratios
    (supervisor sizing) and, calibrated by measured ``run_s``, its units
    (the ``status`` ETA's host seconds per instruction). ``None`` — the
    claim order's name-order fallback — is returned for a workload the profile
    table does not know, rather than guessing a rank for a job that will
    fail anyway.
    """
    from ..workloads.profiles import get_profile

    try:
        profile = get_profile(job.workload)
    except ConfigError:
        return None
    if job.workload_scale != 1.0:
        profile = profile.scaled(job.workload_scale)
    return profile.default_trace_instrs


# ---------------------------------------------------------------------------
# Option resolution (one aggregator over repro.envopts.resolve)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeOptions:
    """Fully-resolved runtime options (kwargs > ``REPRO_*`` > defaults)."""

    jobs: int
    cache_dir: str | None
    backend: str
    fidelity: str = DEFAULT_FIDELITY
    anchors: str = "3x2"
    max_rel_err: float = DEFAULT_MAX_REL_ERR


def resolve_options(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    backend: str | None = None,
    fidelity: str | None = None,
    anchors: str | None = None,
    max_rel_err: float | None = None,
) -> RuntimeOptions:
    """Resolve every runtime option with :func:`repro.envopts.resolve`.

    Each option independently: an explicit (non-``None``) argument wins
    and its variable (``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
    ``REPRO_BACKEND``, ``REPRO_FIDELITY``, ``REPRO_ANALYTIC_ANCHORS``,
    ``REPRO_ANALYTIC_MAX_ERR``) is not read; else the variable; else the
    registry default. Beyond the per-option checks, this rejects the
    broker backend without a cache directory and a malformed anchor grid.
    """
    # Imported lazily: repro.analytic's planner imports this module.
    from ..analytic.planner import parse_anchor_spec

    jobs = resolve("REPRO_JOBS", jobs)
    cache_dir = resolve("REPRO_CACHE_DIR", cache_dir)
    backend = resolve("REPRO_BACKEND", backend)
    if backend == "broker" and cache_dir is None:
        # Fail at configuration time, not minutes later at the first
        # cache-miss batch (make_backend keeps the same check as a
        # backstop for directly-constructed runtimes).
        raise ConfigError(
            "the broker backend needs a shared cache directory for its job "
            "queue: pass --cache-dir or set REPRO_CACHE_DIR"
        )
    fidelity = resolve("REPRO_FIDELITY", fidelity)
    anchors = resolve("REPRO_ANALYTIC_ANCHORS", anchors)
    parse_anchor_spec(anchors)  # validation only; stored as the spec string
    return RuntimeOptions(
        jobs=jobs,
        cache_dir=cache_dir,
        backend=backend,
        fidelity=fidelity,
        anchors=anchors,
        max_rel_err=resolve("REPRO_ANALYTIC_MAX_ERR", max_rel_err),
    )


class ExperimentRuntime:
    """Executes and caches simulation jobs; see module docstring."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        backend: str = "auto",
        fidelity: str = DEFAULT_FIDELITY,
        anchors: str = "3x2",
        max_rel_err: float = DEFAULT_MAX_REL_ERR,
    ):
        from ..analytic.planner import parse_anchor_spec

        self.jobs: int = resolve("REPRO_JOBS", jobs)
        self.backend: str = resolve("REPRO_BACKEND", backend)
        self.fidelity: str = resolve("REPRO_FIDELITY", fidelity)
        self.anchors: str = resolve("REPRO_ANALYTIC_ANCHORS", anchors)
        parse_anchor_spec(self.anchors)
        self.max_rel_err: float = resolve("REPRO_ANALYTIC_MAX_ERR", max_rel_err)
        self.cache_dir: str | None = os.fspath(cache_dir) if cache_dir else None
        self.disk: ResultCache | None = (
            ResultCache(cache_dir) if cache_dir else None
        )
        #: The analytic tier's cache, opened only when a non-exact
        #: fidelity can produce records — an exact-fidelity runtime never
        #: even looks at the analytic tag directory.
        self.analytic: ResultCache | None = None
        if cache_dir and self.fidelity != "exact":
            self.analytic = ResultCache(cache_dir, ANALYTIC_SCHEMA_TAG)
        self._memo: dict[RunKey, SimulationResult] = {}
        #: Model-synthesized results, memoized strictly apart from exact
        #: ones: nothing ever migrates between the two dicts.
        self._analytic_memo: dict[RunKey, SimulationResult] = {}
        self.executed = 0
        #: Cells answered by the analytic model instead of the engine.
        self.estimated = 0
        #: Executor metadata from the most recent batch (broker telemetry,
        #: pool width); merged into the CLI's cache-metrics line.
        self.backend_telemetry: dict = {}

    # ------------------------------------------------------------- lookups

    def _lookup(self, key: RunKey) -> SimulationResult | None:
        """Memo, then disk (promoting a disk hit into the memo)."""
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if self.disk is not None:
            stored = self.disk.get(*key)
            if stored is not None:
                self._memo[key] = stored
                return stored
        return None

    def _lookup_any(self, key: RunKey) -> SimulationResult | None:
        """Exact tier first, then — under a non-exact fidelity — analytic.

        Exact fidelity never consults the analytic tier, so an estimate
        can never satisfy an exact lookup; the analytic tiers *do* accept
        an exact result (strictly better than any estimate).
        """
        hit = self._lookup(key)
        if hit is not None:
            return hit
        if self.fidelity == "exact":
            return None
        hit = self._analytic_memo.get(key)
        if hit is not None:
            return hit
        if self.analytic is not None:
            stored = self.analytic.get(*key)
            if stored is not None:
                self._analytic_memo[key] = stored
                return stored
        return None

    def _store(self, key: RunKey, result: SimulationResult) -> None:
        self._memo[key] = result
        if self.disk is not None:
            self.disk.put(*key, result)

    def _store_analytic(self, key: RunKey, result: SimulationResult) -> None:
        self._analytic_memo[key] = result
        if self.analytic is not None:
            self.analytic.put(*key, result)

    # ----------------------------------------------------------- execution

    def run_one(
        self,
        workload: str,
        config: SimConfig,
        workload_scale: float = 1.0,
    ) -> SimulationResult:
        """Run (or fetch) a single simulation, always in-process.

        A single cell is never worth a calibration pass, so a miss runs
        exact whatever the fidelity — the analytic tiers only answer
        :meth:`run_many` batches (and prior estimates found in the
        analytic tier of the cache).
        """
        job = SimJob(workload, config, workload_scale)
        key = job.key
        hit = self._lookup_any(key)
        if hit is not None:
            return hit
        result = execute_job(job)
        self.executed += 1
        self._store(key, result)
        return result

    def run_many(self, jobs: list[SimJob] | tuple[SimJob, ...]) -> list[SimulationResult]:
        """Run a batch of jobs; results align with ``jobs`` order.

        Duplicate jobs are deduplicated, cached jobs are resolved without
        executing, and the remaining misses run on the selected executor
        backend (process pool with ``jobs > 1`` by default; the broker
        fans them out across worker processes/machines). Under the
        ``analytic``/``hybrid`` fidelity tiers the misses are planned
        into calibration anchors (run exact) plus model-synthesized
        cells (:meth:`_run_estimated`).
        """
        keys = [job.key for job in jobs]
        pending: list[tuple[RunKey, SimJob]] = []
        seen: set[RunKey] = set()
        for key, job in zip(keys, jobs):
            if key in seen or self._lookup_any(key) is not None:
                continue
            seen.add(key)
            pending.append((key, job))
        if pending:
            if self.fidelity == "exact":
                batch = self._execute_batch(pending)
                for (key, job), result in zip(pending, batch):
                    self._store(key, result)
            else:
                self._run_estimated(pending)
        return [self._result_for(key) for key in keys]

    def _result_for(self, key: RunKey) -> SimulationResult:
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        return self._analytic_memo[key]

    def _run_estimated(self, pending: list[tuple[RunKey, SimJob]]) -> None:
        """The analytic/hybrid dispatch: calibrate, estimate, escalate.

        1. Plan the misses into modelable series plus an exact
           passthrough (:func:`repro.analytic.plan_series`).
        2. Run every anchor (and passthrough cell) on the exact engine —
           through :meth:`_execute_batch`, so anchors use the configured
           backend and land in the exact cache like any job.
        3. Fit each series and synthesize its non-anchor cells into the
           analytic memo/store.
        4. Escalate to exact: series the model refuses to fit; under
           ``hybrid`` additionally whole series whose self-reported
           error bound exceeds ``max_rel_err`` and any cell outside its
           anchor hull (extrapolation carries no bound).
        """
        from ..analytic import (
            AnalyticFitError,
            AnchorPoint,
            cell_axes,
            fit_series,
            job_pressure,
            plan_series,
        )

        plans, passthrough = plan_series(
            [job for _, job in pending], self.anchors
        )
        exact_jobs: list[SimJob] = list(passthrough)
        for plan in plans:
            exact_jobs.extend(plan.anchors)
        if exact_jobs:
            exact_pending = [(job.key, job) for job in exact_jobs]
            batch = self._execute_batch(exact_pending)
            for (key, job), result in zip(exact_pending, batch):
                self._store(key, result)
        escalated: list[SimJob] = []
        for plan in plans:
            anchor_points = [
                AnchorPoint(
                    latency=float(cell_axes(job)[0]),
                    pressure=job_pressure(job),
                    result=self._memo[job.key],
                )
                for job in plan.anchors
            ]
            try:
                fit = fit_series(plan.workload, plan.mechanism, anchor_points)
            except AnalyticFitError:
                escalated.extend(plan.estimated)
                continue
            if self.fidelity == "hybrid" and fit.rel_err_bound > self.max_rel_err:
                escalated.extend(plan.estimated)
                continue
            for job in plan.estimated:
                latency = float(cell_axes(job)[0])
                pressure = job_pressure(job)
                if self.fidelity == "hybrid" and not fit.in_hull(
                    latency, pressure
                ):
                    escalated.append(job)
                    continue
                self._store_analytic(job.key, fit.predict(latency, pressure))
                self.estimated += 1
        if escalated:
            escalated_pending = [(job.key, job) for job in escalated]
            batch = self._execute_batch(escalated_pending)
            for (key, job), result in zip(escalated_pending, batch):
                self._store(key, result)

    def _execute_batch(
        self, pending: list[tuple[RunKey, SimJob]]
    ) -> list[SimulationResult]:
        """Dispatch a batch of cache misses to the executor backend.

        Returns one result per pending job, in ``pending`` order.
        """
        jobs = [job for _, job in pending]
        executor = make_backend(self.backend, jobs=self.jobs, cache_dir=self.cache_dir)
        results = executor.run_batch(jobs)
        # The broker can answer jobs from done records that survived an
        # earlier (interrupted) batch; those were not simulated by anyone
        # now, so they must not count as executions.
        self.executed += len(jobs) - getattr(executor, "reused_results", 0)
        telemetry = dict(executor.telemetry())
        telemetry["backend"] = executor.name
        self._merge_telemetry(telemetry)
        return results

    def _merge_telemetry(self, telemetry: dict) -> None:
        """Accumulate executor telemetry across the runtime's batches.

        Numeric fields sum, per-worker job counts merge, so a multi-batch
        run (one per experiment module) reports whole-run totals. A
        backend switch between batches restarts the aggregate.
        """
        merged = self.backend_telemetry
        if merged.get("backend") != telemetry["backend"]:
            self.backend_telemetry = telemetry
            return
        for key, value in telemetry.items():
            if key == "broker_workers":
                workers = merged.setdefault(key, {})
                for worker, count in value.items():
                    workers[worker] = workers.get(worker, 0) + count
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                if key in ("pool_workers", "broker_longest_job_s"):
                    merged[key] = max(merged.get(key, 0), value)
                else:
                    merged[key] = round(merged.get(key, 0) + value, 6)
            else:
                merged[key] = value

    # ------------------------------------------------------------- control

    def clear_memo(self) -> None:
        """Drop the in-process memo (the disk cache is left intact)."""
        self._memo.clear()


def backend_summary(runtime: "ExperimentRuntime") -> str:
    """``backend=NAME, key=value, ...`` for CLI metric trailers.

    One formatter shared by every CLI that prints the runtime's executor
    telemetry, so the ``[cache: ...]`` and ``[sweep ...]`` trailers can
    never drift apart. Every value renders flat (per-worker counts as
    ``w1:19/w2:17``) — the trailer stays a comma-separated key=value
    list that line filters can split naively.
    """

    def flat(value: object) -> object:
        if isinstance(value, dict):
            return "/".join(f"{k}:{v}" for k, v in sorted(value.items()))
        return value

    telemetry = dict(runtime.backend_telemetry)
    backend = telemetry.pop("backend", runtime.backend)
    extra = "".join(f", {key}={flat(telemetry[key])}" for key in sorted(telemetry))
    return f"backend={backend}{extra}"


# ---------------------------------------------------------------------------
# Process-wide default runtime
# ---------------------------------------------------------------------------

_RUNTIME: ExperimentRuntime | None = None


def _from_options(options: RuntimeOptions) -> ExperimentRuntime:
    return ExperimentRuntime(
        jobs=options.jobs,
        cache_dir=options.cache_dir,
        backend=options.backend,
        fidelity=options.fidelity,
        anchors=options.anchors,
        max_rel_err=options.max_rel_err,
    )


def get_runtime() -> ExperimentRuntime:
    """The process-wide runtime (created from env vars on first use)."""
    global _RUNTIME
    if _RUNTIME is None:
        _RUNTIME = _from_options(resolve_options())
    return _RUNTIME


def configure_runtime(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    backend: str | None = None,
    fidelity: str | None = None,
    anchors: str | None = None,
    max_rel_err: float | None = None,
) -> ExperimentRuntime:
    """Replace the process-wide runtime; unset options fall back to env.

    Precedence is :func:`resolve_options`'s: every explicit argument beats
    its ``REPRO_*`` variable, which beats the default. The previous
    runtime's in-process memo is carried over (its entries stay valid —
    keys are content-addressed), so reconfiguring mid-process never
    discards work. An explicit ``cache_dir`` also points the workload
    trace store at the same directory (the two subsystems use disjoint
    schema-tag subdirectories), so ``--cache-dir`` gives pool and broker
    workers warm workload builds as well as warm results — unless
    ``REPRO_TRACE_STORE`` is set, which being the more specific control
    keeps pointing the store wherever it says.
    """
    global _RUNTIME
    runtime = _from_options(
        resolve_options(
            jobs, cache_dir, backend, fidelity, anchors, max_rel_err,
        )
    )
    if cache_dir is not None and read_env("REPRO_TRACE_STORE") is None:
        configure_trace_store(cache_dir)
    if _RUNTIME is not None:
        runtime._memo.update(_RUNTIME._memo)
    _RUNTIME = runtime
    return runtime
