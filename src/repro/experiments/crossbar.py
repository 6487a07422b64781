"""Figure 11 — performance at a lower (crossbar) LLC round-trip latency.

Paper: replacing the mesh (avg ~30-cycle LLC round trip) with a wide
crossbar (~18 cycles) shrinks everyone's absolute gains (misses are
cheaper) but preserves the ordering, including Boomerang's slight edge
over Confluence.
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import SweepResults, SweepSpec
from .speedup import MECHANISM_LABELS


def render(results: SweepResults) -> ExperimentResult:
    return ExperimentResult(
        exhibit="figure11",
        title="Figure 11: speedup over no-prefetch baseline, crossbar NoC (18-cycle LLC)",
        headers=["workload"] + [MECHANISM_LABELS[p.mechanism] for p in results.points()],
        rows=results.speedup_rows(),
        notes=["paper: same ordering as the mesh, smaller absolute gains"],
    )


SPEC = SweepSpec(
    name="figure11",
    title="Figure mechanisms under the crossbar interconnect",
    description=(
        "The Figure 11 grid: the main mechanisms with the NoC switched "
        "to the 18-cycle crossbar (baselines matched on the same NoC)."
    ),
    mechanisms=("next_line", "fdip", "shift", "confluence", "boomerang"),
    axes=(("noc_kind", ("crossbar",)),),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
