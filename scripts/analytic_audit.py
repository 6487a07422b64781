"""Audit the analytic tier's error bound against exact ground truth.

For each workload profile, runs the quick-scale ``dense-latency-btb``
column (3 series x 8 LLC latencies x 5 BTB sizes = 120 cells) on the
exact engine, then answers the same column through the runtime's own
``hybrid`` and ``analytic`` dispatch, with the exact engine replaced by
a replay of those results. Per profile it prints:

* ``exact`` — the cells ``--fidelity hybrid`` runs on the engine: the
  anchors, every cell of a series whose bound exceeds the escalation
  threshold, and any cell outside its series' anchor hull;
* ``viol`` — estimated cells whose realized relative IPC error exceeds
  the bound the model reported for them;
* the median, p90 and max of realized error / reported bound;
* each series' bound.

Errors are scored over the ``analytic`` answer, which estimates every
non-anchor cell, escalated series included. Exit status is 1 on any
violation, 0 otherwise.

    PYTHONPATH=src python scripts/analytic_audit.py
    PYTHONPATH=src python scripts/analytic_audit.py --profiles oracle --jobs 2
    PYTHONPATH=src python scripts/analytic_audit.py --seed 11

``--seed`` replaces every profile's seed, which regenerates its CFG and
trace: held-out workloads the model was never looked at on. The default
keeps the stock seeds. A full run over the ten profiles is 1,200 exact
cells, ~9 minutes with ``--jobs 2`` on a 2-CPU x86-64 VM.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro import Simulator
from repro.analytic import is_analytic, reported_bound
from repro.core.results import SimulationResult
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.runtime import ExperimentRuntime, SimJob
from repro.runtime.runner import DEFAULT_MAX_REL_ERR
from repro.workloads import load_workload, profile_names
from repro.workloads.profiles import get_profile


def dense_column(profile: str) -> list[SimJob]:
    """One profile's deduplicated quick dense-grid jobs, in grid order."""
    spec = replace(get_sweep("dense-latency-btb"), workload_set="all")
    seen, jobs = set(), []
    for job in spec.jobs(get_scale("quick")):
        if job.workload == profile and job.key not in seen:
            seen.add(job.key)
            jobs.append(job)
    return jobs


def run_exact(task: tuple[SimJob, int | None]) -> SimulationResult:
    """One cell on the exact engine, optionally on a re-seeded profile."""
    job, seed = task
    profile = get_profile(job.workload)
    if seed is not None:
        profile = replace(profile, seed=seed)
    workload = load_workload(profile, scale=job.workload_scale)
    return Simulator(workload, job.config).run()


class ReplayRuntime(ExperimentRuntime):
    """A runtime whose exact engine replays precomputed results.

    ``_execute_batch`` is the runtime's executor seam: everything above
    it (planning, fitting, escalation) runs unchanged.
    """

    def __init__(self, exact: dict, **options):
        super().__init__(backend="serial", **options)
        self._exact = exact

    def _execute_batch(self, pending):
        self.executed += len(pending)
        return [self._exact[key] for key, _ in pending]


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def audit_profile(jobs: list[SimJob], exact: dict) -> dict:
    """Score one column's estimates against its exact results."""
    hybrid = ReplayRuntime(exact, fidelity="hybrid")
    hybrid.run_many(jobs)
    estimates = ReplayRuntime(exact, fidelity="analytic").run_many(jobs)
    ratios: list[float] = []
    worst_err = 0.0
    violations: list[str] = []
    bounds: dict[str, float] = {}
    for job, estimate in zip(jobs, estimates):
        if not is_analytic(estimate):
            continue
        bound = reported_bound(estimate)
        bounds[job.config.mechanism] = bound
        truth = exact[job.key].ipc
        err = abs(estimate.ipc - truth) / truth
        worst_err = max(worst_err, err)
        ratios.append(err / bound)
        if err > bound:
            latency, btb = job.config.memory.llc_round_trip, job.config.btb.entries
            violations.append(
                f"{job.config.mechanism} L{latency} B{btb}: "
                f"err {err:.5f} > bound {bound:.5f}"
            )
    ratios.sort()
    return {
        "cells": len(jobs),
        "exact": hybrid.executed,
        "estimated": len(ratios),
        "violations": violations,
        "p50": _quantile(ratios, 0.5),
        "p90": _quantile(ratios, 0.9),
        "max": ratios[-1] if ratios else 0.0,
        "worst_err": worst_err,
        "bounds": bounds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--profiles",
        default=",".join(profile_names("all")),
        help="comma-separated profile names (default: all ten)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="replace every profile's seed (default: stock seeds)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    unknown = sorted(set(profiles) - set(profile_names("all")))
    if unknown or not profiles:
        parser.error(f"unknown or no profiles: {', '.join(unknown)}")
    seed_label = "stock" if args.seed is None else str(args.seed)

    print(
        f"analytic audit: quick dense-latency-btb column, seed {seed_label}, "
        f"escalation threshold {DEFAULT_MAX_REL_ERR}"
    )
    print(
        f"{'profile':<14} {'cells':>5} {'exact':>5} {'est':>4} {'viol':>4} "
        f"{'p50':>6} {'p90':>6} {'max':>6} {'worst err':>9}  series bounds"
    )
    total_violations = 0
    totals = {"cells": 0, "exact": 0}
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for profile in profiles:
            jobs = dense_column(profile)
            results = pool.map(run_exact, [(job, args.seed) for job in jobs])
            exact = {job.key: result for job, result in zip(jobs, results)}
            row = audit_profile(jobs, exact)
            total_violations += len(row["violations"])
            totals["cells"] += row["cells"]
            totals["exact"] += row["exact"]
            bounds = " ".join(
                f"{mech} {bound:.3f}" for mech, bound in sorted(row["bounds"].items())
            )
            print(
                f"{profile:<14} {row['cells']:>5} {row['exact']:>5} "
                f"{row['estimated']:>4} {len(row['violations']):>4} "
                f"{row['p50']:>6.3f} {row['p90']:>6.3f} {row['max']:>6.3f} "
                f"{row['worst_err']:>9.5f}  {bounds}",
                flush=True,
            )
            for line in row["violations"]:
                print(f"  VIOLATION {profile} {line}", flush=True)
    print(
        f"total: {totals['exact']} of {totals['cells']} cells exact, "
        f"{total_violations} violation(s)"
    )
    return 1 if total_violations else 0


if __name__ == "__main__":
    sys.exit(main())
