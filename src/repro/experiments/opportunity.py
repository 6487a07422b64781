"""Figure 1 — opportunity of perfect control-flow delivery.

Paper: over a 2K-BTB / 32KB-L1-I baseline, a perfect L1-I improves
performance 11-47%; additionally perfecting the BTB adds another 6-40%,
with the OLTP workloads (DB2 especially) showing the largest BTB gains.
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import Grid, SweepResults, SweepSpec


def render(results: SweepResults) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="figure1",
        title="Figure 1: speedup of perfect L1-I / perfect L1-I+BTB over baseline",
        headers=["workload", "base_ipc", "perfect_l1i", "perfect_l1i_btb", "btb_adds"],
    )
    base_point, l1i_point, both_point = results.points()
    speedups_l1i = []
    speedups_both = []
    for name in results.workloads:
        base = results[name, base_point]
        s1 = results[name, l1i_point].speedup_over(base)
        s2 = results[name, both_point].speedup_over(base)
        speedups_l1i.append(s1)
        speedups_both.append(s2)
        result.rows.append([name, base.ipc, s1, s2, s2 - s1])
    n = len(results.workloads)
    result.rows.append(
        [
            "avg",
            sum(float(r[1]) for r in result.rows) / n,
            sum(speedups_l1i) / n,
            sum(speedups_both) / n,
            (sum(speedups_both) - sum(speedups_l1i)) / n,
        ]
    )
    result.notes.append("paper: perfect L1-I +11-47%; perfect BTB adds another 6-40%")
    return result


_PERFECT_L1I = ("perfect_l1i", (True,))

SPEC = SweepSpec(
    name="figure1",
    title="Perfect L1-I and perfect L1-I+BTB over the no-prefetch baseline",
    description=(
        "The Figure 1 grid: the no-prefetch baseline, then with a perfect "
        "L1-I, then with a perfect L1-I and BTB."
    ),
    mechanisms=("none",),
    union=(
        Grid(("none",), (_PERFECT_L1I,)),
        Grid(("none",), (_PERFECT_L1I, ("perfect_btb", (True,)))),
    ),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
