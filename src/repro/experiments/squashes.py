"""Figure 7 — pipeline squashes per kilo-instruction, by cause.

Paper: with a 2K-entry BTB, BTB misses and direction/target mispredicts
contribute comparably for the BTB-blind schemes (DB2 is ~75% BTB-miss
squashes); Boomerang and Confluence eliminate >85% of BTB-miss squashes
(~2x total squash reduction), Boomerang the more completely because it
*detects* every miss rather than hoping the prefetcher avoided it.
"""

from __future__ import annotations

from dataclasses import replace

from .common import ExperimentResult
from .grid import SweepResults
from .speedup import MECHANISM_LABELS
from .speedup import SPEC as FIGURE9_SPEC


def render(results: SweepResults) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="figure7",
        title="Figure 7: squashes per kilo-instruction (mispredict + BTB miss)",
        headers=["workload", "mechanism", "mispredict_pki", "btb_miss_pki", "total_pki"],
        float_fmt="{:.2f}",
    )
    points = results.points()
    for name in results.workloads:
        for point in points:
            res = results[name, point]
            result.rows.append(
                [
                    name,
                    MECHANISM_LABELS[point.mechanism],
                    res.mispredict_squashes_per_kilo,
                    res.btb_squashes_per_kilo,
                    res.squashes_per_kilo,
                ]
            )
    # Average row per mechanism.
    for point in points:
        rows = [results[name, point] for name in results.workloads]
        n = len(rows)
        result.rows.append(
            [
                "avg",
                MECHANISM_LABELS[point.mechanism],
                sum(r.mispredict_squashes_per_kilo for r in rows) / n,
                sum(r.btb_squashes_per_kilo for r in rows) / n,
                sum(r.squashes_per_kilo for r in rows) / n,
            ]
        )
    result.notes.append(
        "paper: Boomerang/Confluence eliminate >85% of BTB-miss squashes"
    )
    return result


#: The Figure 9 grid, rendered as Figure 7.
SPEC = replace(FIGURE9_SPEC, render=render)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
