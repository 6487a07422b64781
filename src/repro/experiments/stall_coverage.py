"""Figure 8 — front-end stall cycles covered over the no-prefetch baseline.

Paper: Boomerang covers 61% of stall cycles on average, statistically tied
with Confluence (60%); Boomerang leads on the web workloads (local BPU
state redirects faster than SHIFT's LLC-resident history) and trails on
Oracle/DB2, whose extreme BTB miss rates make Boomerang stall for prefills.
"""

from __future__ import annotations

from dataclasses import replace

from .common import ExperimentResult
from .grid import SweepResults
from .speedup import MECHANISM_LABELS
from .speedup import SPEC as FIGURE9_SPEC


def render(results: SweepResults) -> ExperimentResult:
    points = results.points()
    result = ExperimentResult(
        exhibit="figure8",
        title="Figure 8: front-end stall-cycle coverage over no-prefetch baseline",
        headers=["workload"] + [MECHANISM_LABELS[p.mechanism] for p in points],
    )
    sums = [0.0] * len(points)
    for name in results.workloads:
        row: list[object] = [name]
        for i, point in enumerate(points):
            cov = results[name, point].coverage_over(results.baseline(name, point))
            sums[i] += cov
            row.append(cov)
        result.rows.append(row)
    result.rows.append(["avg"] + [s / len(results.workloads) for s in sums])
    result.notes.append("paper: Boomerang 61% avg ~ Confluence 60% avg")
    return result


#: The Figure 9 grid, rendered as Figure 8.
SPEC = replace(FIGURE9_SPEC, render=render)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
