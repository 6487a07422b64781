"""Figure 5 — FDIP stall-cycle coverage vs. BTB size and LLC latency.

Paper: shrinking the BTB from 32K to 2K entries costs only ~12% of stall
cycle coverage — the sequential and conditional classes survive on the
straight-line path; only far unconditional discontinuities are lost.
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import SweepResults, SweepSpec


def render(results: SweepResults) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="figure5",
        title="Figure 5: FDIP stall-cycle coverage vs BTB size and LLC latency",
        headers=["btb"] + [f"llc={lat}" for lat in results.scale.latency_points],
    )
    coverage: dict[int, list[object]] = {}
    for point in results.points():
        coverage.setdefault(point["btb_entries"], []).append(
            results.stall_coverage(point)
        )
    for entries in sorted(coverage, reverse=True):
        result.rows.append([f"{entries // 1024}K", *coverage[entries]])
    result.notes.append("paper: 32K -> 2K BTB costs ~12% coverage")
    return result


SPEC = SweepSpec(
    name="figure5",
    title="FDIP over the BTB-size × LLC-latency grid",
    description=(
        "The Figure 5 grid: FDIP at every scale-resolved BTB size and "
        "LLC latency point, with matched baselines."
    ),
    mechanisms=("fdip",),
    axes=(("btb_entries", "btb_sizes"), ("llc_latency", "latency_points")),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
