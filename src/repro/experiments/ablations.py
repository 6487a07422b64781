"""Ablations of Boomerang's design choices (paper Section IV-C).

Beyond the paper's own throttle sweep (Figure 10), these quantify the
pieces of the design that Section IV-C discusses:

* **BTB prefetch buffer capacity** — staging predecoded entries outside
  the BTB; 32 entries is the paper's choice.
* **FTQ depth** — how far the decoupled front end runs ahead.
* **Predecode latency** — how expensive each BTB miss resolution is.
"""

from __future__ import annotations

from ..stats import geometric_mean
from .common import ExperimentResult
from .grid import Grid, SweepResults, SweepSpec


def render(results: SweepResults) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="ablations",
        title="Boomerang design ablations (gmean speedup over baseline)",
        headers=["knob", "value", "gmean_speedup"],
    )
    for point in results.points():
        ((knob, value),) = point.settings
        result.rows.append([knob, value, geometric_mean(results.speedups(point))])
    return result


SPEC = SweepSpec(
    name="ablations",
    title="Boomerang design ablations",
    description=(
        "Section IV-C's knobs, one at a time over Boomerang: BTB prefetch "
        "buffer entries, FTQ depth and predecode latency, with baselines."
    ),
    mechanisms=("boomerang",),
    axes=(("btb_prefetch_buffer", (1, 8, 32, 128)),),
    union=(
        Grid(("boomerang",), (("ftq_depth", (8, 16, 32, 64)),)),
        Grid(("boomerang",), (("predecode_latency", (1, 3, 6)),)),
    ),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
