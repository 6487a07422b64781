"""Figure 9 — speedup over the no-prefetch baseline (2K-entry BTB).

Paper: Boomerang improves performance 27.5% on average, edging Confluence
(+1%) without any of its metadata; both complete control-flow-delivery
schemes beat the L1-I-only prefetchers by ~11% on average because they
also remove pipeline squashes.

:data:`SPEC` is also the grid behind Figures 7 and 8, which render it
their own way.
"""

from __future__ import annotations

from ..core.mechanisms import FIGURE_MECHANISMS
from .common import ExperimentResult
from .grid import SweepResults, SweepSpec

#: Display labels matching the paper's figure legends.
MECHANISM_LABELS: dict[str, str] = {
    "none": "Base",
    "next_line": "Next Line",
    "dip": "DIP",
    "fdip": "FDIP",
    "pif": "PIF",
    "shift": "SHIFT",
    "confluence": "Confluence",
    "boomerang": "Boomerang",
}


def render(results: SweepResults) -> ExperimentResult:
    return ExperimentResult(
        exhibit="figure9",
        title="Figure 9: speedup over no-prefetch baseline",
        headers=["workload"] + [MECHANISM_LABELS[p.mechanism] for p in results.points()],
        rows=results.speedup_rows(),
        notes=["paper: Boomerang +27.5% avg, ~= Confluence, ~+11% over L1-I-only schemes"],
    )


SPEC = SweepSpec(
    name="figure9",
    title="All figure mechanisms on the paper workloads",
    description=(
        "The grid Figures 7, 8 and 9 share: every plotted mechanism per "
        "workload plus the no-prefetch baseline."
    ),
    mechanisms=FIGURE_MECHANISMS,
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
