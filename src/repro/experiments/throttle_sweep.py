"""Figure 10 — Boomerang's next-N-block prefetch under a BTB miss.

Paper: next-2-blocks is the best average policy (notably +12% on DB2 over
no prefetch-under-miss); Streaming prefers no speculative blocks at all
(its discarded blocks pollute bandwidth and the prefetch buffer); beyond
two blocks, erroneous prefetches start delaying useful ones.
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import SweepResults, SweepSpec

#: Next-N policies in paper order.
POLICIES: tuple[int, ...] = (0, 1, 2, 4, 8)

POLICY_LABELS = {0: "None", 1: "1 Block", 2: "2 Blocks", 4: "4 Blocks", 8: "8 Blocks"}


def render(results: SweepResults) -> ExperimentResult:
    return ExperimentResult(
        exhibit="figure10",
        title="Figure 10: Boomerang speedup vs next-N-block prefetch on BTB miss",
        headers=["workload"]
        + [POLICY_LABELS[p["throttle_blocks"]] for p in results.points()],
        rows=results.speedup_rows(),
        notes=["paper: next-2 optimal on average; Streaming prefers None"],
    )


SPEC = SweepSpec(
    name="figure10",
    title="Boomerang next-N-block throttle policies",
    description=(
        "The Figure 10 grid: Boomerang with 0/1/2/4/8 sequential "
        "blocks prefetched under an unresolved BTB miss."
    ),
    mechanisms=("boomerang",),
    axes=(("throttle_blocks", POLICIES),),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
