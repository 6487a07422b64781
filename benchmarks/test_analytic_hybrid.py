"""Bench guard: hybrid fidelity vs all-exact, on the dense grid.

Runs one workload's full column of the ROADMAP's ``dense-latency-btb``
sweep at quick scale (120 cells) once with every cell on the exact
engine and once under
``--fidelity hybrid`` (:mod:`repro.analytic`): per series, a 3x2 anchor
grid runs exact, the fitted closed-form model synthesizes the rest, and
high-uncertainty or extrapolating cells are re-dispatched exact. Both
modes use fresh runtimes with no persistent stores, so each pays its real
cost.

Two pins, each with generous CI headroom below the measured values:

* **exact-cell reduction** — hybrid must execute >= 5x fewer
  exact-engine cells than the grid has (the planner's 3-series x 6-anchor
  layout gives 18 of 120, a 6.7x reduction);
* **wall-clock speedup** — the hybrid pass must finish >= 3x faster than
  the all-exact pass (measured ~6x: model fitting and prediction are
  microseconds against engine-seconds).

Every analytic cell's IPC is additionally checked against the exact run's
ground truth: the relative error must stay within the model's own
reported bound — the bench would fail before it would publish a fast but
dishonest number. The deterministic outcome is pinned too: the cell
split (120 = 18 exact + 102 analytic) and the worst analytic error
(0.01425, within 5%). The bench writes no files; it prints one
``[hybrid dense column: ...]`` summary line, which the CI benchmarks job
copies into its step summary.
"""

from __future__ import annotations

import time

import pytest

from repro.analytic import is_analytic, reported_bound
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.runtime import ExperimentRuntime
from repro.workloads.workload import load_workload

#: The measured column: one paper workload's slice of the dense grid.
WORKLOAD = "apache"

#: ISSUE acceptance floor: >= 5x fewer exact-engine cell executions.
REDUCTION_FLOOR = 5.0

#: Measured ~6x end-to-end; 3x leaves CI-runner headroom.
SPEEDUP_FLOOR = 3.0

#: The worst analytic cell's relative IPC error, as measured; a change
#: beyond 5% means the model or the engine moved.
MAX_REL_ERR = 0.01425


def _dense_column(workload: str) -> list:
    """The deduplicated dense-grid jobs for one workload, in grid order."""
    spec = get_sweep("dense-latency-btb")
    scale = get_scale("quick")
    seen, jobs = set(), []
    for job in spec.jobs(scale):
        if job.workload != workload or job.key in seen:
            continue
        seen.add(job.key)
        jobs.append(job)
    return jobs


def test_hybrid_dense_grid_vs_all_exact():
    jobs = _dense_column(WORKLOAD)
    assert len(jobs) == 120
    scale = get_scale("quick")
    # Build the workload once, outside both timings.
    load_workload(WORKLOAD, scale=scale.workload_scale)

    start = time.perf_counter()
    exact_results = ExperimentRuntime().run_many(jobs)
    t_exact = time.perf_counter() - start

    hybrid_runtime = ExperimentRuntime(fidelity="hybrid")
    start = time.perf_counter()
    hybrid_results = hybrid_runtime.run_many(jobs)
    t_hybrid = time.perf_counter() - start

    exact_cells = hybrid_runtime.executed
    reduction = len(jobs) / exact_cells if exact_cells else float("inf")
    speedup = t_exact / t_hybrid

    errors = []
    bounds_ok = True
    for truth, estimate in zip(exact_results, hybrid_results):
        if not is_analytic(estimate):
            assert estimate.raw == truth.raw  # exact cells are bit-identical
            continue
        err = abs(estimate.ipc - truth.ipc) / truth.ipc
        errors.append(err)
        if err > reported_bound(estimate):
            bounds_ok = False

    max_rel_err = max(errors) if errors else 0.0
    mean_rel_err = sum(errors) / len(errors) if errors else 0.0
    print(
        f"\n[hybrid dense column: {WORKLOAD} @ quick, {len(jobs)} cells, "
        f"{exact_cells} exact ({reduction:.2f}x fewer, floor "
        f"{REDUCTION_FLOOR}x), {hybrid_runtime.estimated} analytic; "
        f"all-exact {t_exact:.1f}s, hybrid {t_hybrid:.1f}s (speedup "
        f"{speedup:.2f}x, floor {SPEEDUP_FLOOR}x); max rel err "
        f"{max_rel_err:.5f}, mean {mean_rel_err:.5f}, bounds ok {bounds_ok}]"
    )

    assert exact_cells == 18
    assert hybrid_runtime.estimated == 102
    assert bounds_ok, "an analytic cell's error exceeded its reported bound"
    assert max_rel_err == pytest.approx(MAX_REL_ERR, rel=0.05)
    assert reduction >= REDUCTION_FLOOR, (
        f"hybrid ran {exact_cells} exact cells of {len(jobs)} "
        f"({reduction:.1f}x < floor {REDUCTION_FLOOR}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"hybrid regressed: {t_hybrid:.1f}s vs all-exact {t_exact:.1f}s "
        f"(speedup {speedup:.2f}x < floor {SPEEDUP_FLOOR}x)"
    )
