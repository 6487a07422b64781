"""Figure 3 — sources of miss cycles (sequential / conditional / unconditional).

Paper: in the no-prefetch baseline, sequential misses dominate (40-54% of
miss cycles); FDIP covers the bulk of all three classes, with the residual
difference between small and large BTBs concentrated in *unconditional*
discontinuities (far-away targets only a BTB can reveal).

Rows are normalized to each workload's no-prefetch baseline miss cycles,
like the paper's 100%-stacked bars.
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import Grid, SweepResults, SweepSpec

LABELS = {"none": "Base", "next_line": "Next-Line", "fdip": "FDIP", "pif": "PIF"}


def render(results: SweepResults) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="figure3",
        title="Figure 3: miss-cycle breakdown, % of no-prefetch baseline miss cycles",
        headers=["config", "sequential%", "conditional%", "unconditional%", "total%"],
        float_fmt="{:.1f}",
    )
    points = results.points()
    base_point = points[0]
    denom = sum(results[name, base_point].stall_cycles for name in results.workloads)
    for point in points:
        seq = cond = uncond = 0.0
        for name in results.workloads:
            res = results[name, point]
            seq += res.raw.get("stall_seq", 0)
            cond += res.raw.get("stall_cond", 0)
            uncond += res.raw.get("stall_uncond", 0)
        label = f"{LABELS[point.mechanism]} {point.config().btb.entries // 1024}K"
        result.rows.append(
            [
                label,
                100.0 * seq / denom,
                100.0 * cond / denom,
                100.0 * uncond / denom,
                100.0 * (seq + cond + uncond) / denom,
            ]
        )
    base_row = result.row_for("Base 2K")
    result.notes.append(
        f"baseline sequential share = {100 * float(base_row[1]) / float(base_row[4]):.0f}% "
        "(paper: 40-54%)"
    )
    result.notes.append(
        "paper: the FDIP BTB-size gap concentrates in the unconditional class"
    )
    return result


SPEC = SweepSpec(
    name="figure3",
    title="Miss-cycle breakdown by class",
    description=(
        "The Figure 3 grid: the no-prefetch baseline and Next-Line at the "
        "2K BTB, FDIP over the scale's Figure 3 BTB sizes, and PIF at 32K; "
        "every row normalizes to the first, so no matched baselines."
    ),
    mechanisms=("none", "next_line"),
    union=(
        Grid(("fdip",), (("btb_entries", "fig3_btb_sizes"),)),
        Grid(("pif",), (("btb_entries", (32768,)),)),
    ),
    include_baseline=False,
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
