"""``hybrid-dense``: the dense latency × BTB grid under hybrid fidelity.

The ``dense-latency-btb`` sweep's quick-scale column for oracle, answered
by ``ExperimentRuntime(fidelity="hybrid")`` — serial, no persistent
store, one closed-loop client. Many configs share one workload here, the
opposite of ``profile-matrix``. Both planner paths run: the fitted model
answers the ``fdip`` and ``boomerang`` series, while the ``none``
series' error bound exceeds the escalation threshold, so that whole
series is re-run exact. It is the only workload where ``analytic`` sets
part of the result.

One unit of work is a seeded sample of the column: per series, the
planner's 3×2 anchor lattice plus one seeded non-anchor cell at each of
the 8 latency points (42 of the 120 cells). Keeping the lattice and
every axis value keeps the anchors — and so each series' fit, bound and
escalation verdict — exactly those of the full column, while one unit
takes about 28 s: a run measures ``--seconds`` / 28 s units (one at the
default 30 s). The seed picks the sampled cells and the submission order.

Checks (untimed, after the measured units): a seeded sample of estimated cells
is re-run on the exact engine and must sit within its own reported
bound; a seeded sample of exact cells must equal a fresh exact-fidelity
run bit for bit; every exact cell retires its whole trace.
"""

from __future__ import annotations

import gc
import random
import time

from benchlib import SETUP_REPS, median, peak_rss_mb, tail, units_for
from outcome import Outcome

from repro.analytic import cell_axes, is_analytic, plan_series, reported_bound
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.runtime import ExperimentRuntime, SimJob
from repro.runtime.runner import execute_job
from repro.workloads import clear_workload_cache, configure_trace_store, load_workload

WORKLOADS = ("oracle",)


#: Nominal host seconds per unit: sets how many units a run measures.
NOMINAL_UNIT_S = 28.0

#: Estimated / exact cells re-checked per run.
CHECK_ESTIMATED = 3
CHECK_EXACT = 1

#: Exact cells re-run traced in the traced run.
TRACED_CELLS = 2

_DEFAULTS = ExperimentRuntime()
OPTIONS = (
    f"{'+'.join(WORKLOADS)} dense-latency-btb column at quick scale, "
    f"ExperimentRuntime(fidelity=hybrid, backend=serial, anchors={_DEFAULTS.anchors}, "
    f"max_rel_err={_DEFAULTS.max_rel_err}, no cache dir), trace store off"
)


class TimedRuntime(ExperimentRuntime):
    """A hybrid runtime that times each exact cell it dispatches.

    ``_execute_batch`` is the runtime's executor seam; handing it one job
    at a time on the serial backend runs the same cells in the same
    order, with one clock read around each. It does change the dispatch:
    one backend and one telemetry merge per exact cell instead of per
    batch. An empty dispatch costs about 4 us on a 2-CPU x86-64 VM, so
    the ~23 extra dispatches of a unit add ~0.1 ms to its ~27 s.
    """

    def __init__(self, **options):
        super().__init__(**options)
        self.cell_log: list[tuple[SimJob, float, object]] = []

    def _execute_batch(self, pending):
        results = []
        for item in pending:
            start = time.perf_counter()
            (result,) = super()._execute_batch([item])
            self.cell_log.append((item[1], time.perf_counter() - start, result))
            results.append(result)
        return results


def dense_columns() -> list[SimJob]:
    """The deduplicated dense-grid jobs of the workloads, in grid order."""
    spec = get_sweep("dense-latency-btb")
    seen, jobs = set(), []
    for job in spec.jobs(get_scale("quick")):
        if job.workload in WORKLOADS and job.key not in seen:
            seen.add(job.key)
            jobs.append(job)
    return jobs


def sample_unit(plans, rng: random.Random) -> list[SimJob]:
    """Anchors plus one seeded non-anchor cell per latency, per series."""
    jobs: list[SimJob] = []
    for plan in plans:
        jobs.extend(plan.anchors)
        by_latency: dict[int, list[SimJob]] = {}
        for job in plan.estimated:
            by_latency.setdefault(cell_axes(job)[0], []).append(job)
        for latency in sorted(by_latency):
            jobs.append(rng.choice(by_latency[latency]))
    rng.shuffle(jobs)
    return jobs


def run(seconds: float, seed: int, tracer) -> Outcome:
    out = Outcome()
    configure_trace_store(None)
    scale = get_scale("quick").workload_scale
    rng = random.Random(seed)

    setups = []
    for _ in range(1 if tracer else SETUP_REPS):
        clear_workload_cache()
        start = time.perf_counter()
        for name in WORKLOADS:
            load_workload(name, scale=scale)
        plans, passthrough = plan_series(dense_columns())
        setups.append(time.perf_counter() - start)
    if passthrough:
        raise RuntimeError("dense column has unplanned cells")

    gc.collect()  # start the measured work without set-up garbage
    units: list[dict] = []
    for _ in range(units_for(seconds, NOMINAL_UNIT_S)):
        jobs = sample_unit(plans, rng)
        runtime = TimedRuntime(fidelity="hybrid", backend="serial")
        start = time.perf_counter()
        results = runtime.run_many(jobs)
        wall = time.perf_counter() - start
        units.append({"jobs": jobs, "results": results, "runtime": runtime, "s": wall})
    # The checks below run the runtime again; keep only the measured spans.
    spans = {name: list(stat) for name, stat in tracer.stats.items()} if tracer else {}

    exact = [(job, s, res) for u in units for job, s, res in u["runtime"].cell_log]
    cells = sum(len(u["jobs"]) for u in units)
    wall = sum(u["s"] for u in units)
    estimated = [
        (job, res)
        for u in units
        for job, res in zip(u["jobs"], u["results"])
        if is_analytic(res)
    ]

    # Checks, untimed.
    out.attempted = cells
    n_instrs = {name: load_workload(name, scale=scale).trace.n_instrs for name in WORKLOADS}
    for job, _, res in exact:
        ok = res.raw["retired_instrs"] + res.raw["warmup_instrs"] == n_instrs[job.workload]
        out.check(ok, _cell_id(job), "retired + warm-up instructions != trace length")
    errors = []
    for job, est in rng.sample(estimated, min(CHECK_ESTIMATED, len(estimated))):
        truth = execute_job(job)
        err = abs(est.ipc - truth.ipc) / truth.ipc
        errors.append(err)
        out.check(err <= reported_bound(est), _cell_id(job),
                  f"error {err:.4f} > reported bound {reported_bound(est):.4f}")
    for job, _, res in rng.sample(exact, min(CHECK_EXACT, len(exact))):
        (again,) = ExperimentRuntime(backend="serial").run_many([job])
        out.check(again.raw == res.raw, _cell_id(job), "differs from an exact-fidelity run")

    times = [s for _, s, _ in exact]
    instrs = sum(n_instrs[job.workload] for job, _, _ in exact)
    tail_s, tail_pct, n = tail(times)
    escalated = sum(u["runtime"].executed for u in units) - sum(
        len(p.anchors) for p in plans
    ) * len(units)
    out.notes.append(
        f"{len(units)} unit(s): {cells} grid cells, {len(exact)} exact "
        f"({escalated} escalated), {len(estimated)} estimated in {wall:.2f}s; "
        f"cell_s_tail is p{tail_pct:.1f} of n={n}"
    )
    out.notes.append(
        f"analytic_err_max {max(errors) if errors else 0.0:.5f} (ratio) over "
        f"{len(errors)} checked estimated cells"
    )
    out.metrics.update(
        setup_s=(median(setups), "s"),
        cells_per_s=(cells / wall, "cells/s"),
        sim_kips=(instrs / sum(times) / 1e3, "kinstr/s"),
        cell_s_p50=(median(times), "s"),
        cell_s_tail=(tail_s, "s"),
        makespan_s=(median([u["s"] for u in units]), "s"),
        fleet_util=(sum(times) / wall, "ratio"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    out.layers["analytic.err_max"] = max(errors) if errors else 0.0

    if tracer:
        _traced_layers(out, tracer, spans, units, plans, exact, rng)
    return out


def _cell_id(job: SimJob) -> str:
    latency, btb = cell_axes(job)
    return f"{job.workload}:{job.config.mechanism}:L{latency}:B{btb}"


def _traced_layers(out, tracer, spans, units, plans, exact, rng) -> None:
    """Per-layer metrics; the engine layers come from traced re-runs."""
    traced_s = untraced_s = 0.0
    for job, s, res in rng.sample(exact, min(TRACED_CELLS, len(exact))):
        with tracer.cell_span(_cell_id(job)):
            start = time.perf_counter()
            again = execute_job(job)
            traced_s += time.perf_counter() - start
        untraced_s += s
        out.check(again.raw == res.raw, _cell_id(job), "tracing changed stats")
    series = len(plans) * len(units)
    escalated_series = 0
    for u in units:
        exact_keys = {job.key for job, _, _ in u["runtime"].cell_log}
        for plan in plans:
            planned = {job.key for job in plan.anchors}
            sampled = [j for j in u["jobs"] if j in plan.cells and j.key not in planned]
            if sampled and all(j.key in exact_keys for j in sampled):
                escalated_series += 1
    cells = sum(len(u["jobs"]) for u in units)
    estimated = sum(u["runtime"].estimated for u in units)
    cycles = sum(res.raw["total_cycles"] for _, _, res in exact)

    def total_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    run_many_s = total_s("runtime.run_many")
    execute_s = total_s("runtime.execute_job")
    out.layers.update({
        "core.engine.cycles": cycles,
        "core.engine.ns_per_cycle": sum(s for _, s, _ in exact) / cycles * 1e9,
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
        "analytic.series": series,
        "analytic.escalated_series": escalated_series,
        "analytic.exact_cells": len(exact),
        "analytic.estimated_frac": estimated / cells,
        "analytic.plan_s": total_s("analytic.plan"),
        "analytic.fit_s": total_s("analytic.fit"),
        "analytic.predict_s": total_s("analytic.predict"),
        "runtime.run_many_s": run_many_s,
        "runtime.execute_s": execute_s,
        "runtime.overhead_s": run_many_s - execute_s,
    })
