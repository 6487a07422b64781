"""Figure 2 — front-end stall cycles covered vs. LLC latency.

Paper: with a near-ideal 32K-entry BTB, FDIP+TAGE covers stall cycles
nearly identically to PIF across LLC latencies of 1-70 cycles; FDIP with a
2-bit (bimodal) predictor tracks closely, and even a naive never-taken
predictor attains much of the coverage — because conditional-branch
targets are short (Figure 4) and unconditional branches need no direction
prediction at all (Section III-A).
"""

from __future__ import annotations

from .common import ExperimentResult
from .grid import Grid, SweepResults, SweepSpec

#: Near-ideal BTB used to isolate the direction predictor (paper III-A).
IDEAL_BTB_ENTRIES = 32768

#: (mechanism, predictor kind) -> series label.
SERIES: dict[tuple[str, object], str] = {
    ("pif", "tage"): "PIF",
    ("fdip", "tage"): "FDIP TAGE",
    ("fdip", "bimodal"): "FDIP 2-bit",
    ("fdip", "never_taken"): "FDIP Never-Taken",
}


def render(results: SweepResults) -> ExperimentResult:
    latencies = results.scale.latency_points
    result = ExperimentResult(
        exhibit="figure2",
        title="Figure 2: fraction of stall cycles covered vs LLC latency (32K BTB)",
        headers=["series"] + [f"llc={lat}" for lat in latencies],
    )
    coverage: dict[tuple[str, object], list[object]] = {}
    for point in results.points():
        series = (point.mechanism, point["predictor"])
        coverage.setdefault(series, []).append(results.stall_coverage(point))
    for series, values in coverage.items():
        result.rows.append([SERIES[series], *values])
    result.notes.append(
        "paper: FDIP TAGE tracks PIF across the latency range; never-taken "
        "retains most coverage (short conditional targets)"
    )
    return result


_AXES = (("btb_entries", (IDEAL_BTB_ENTRIES,)), ("llc_latency", "latency_points"))

SPEC = SweepSpec(
    name="figure2",
    title="Stall-cycle coverage vs LLC latency at a near-ideal BTB",
    description=(
        "The Figure 2 grid: PIF with TAGE and FDIP with TAGE, 2-bit and "
        "never-taken predictors, at a 32K-entry BTB over the scale's LLC "
        "latency points, with matched baselines."
    ),
    mechanisms=("pif",),
    axes=(*_AXES, ("predictor", ("tage",))),
    union=(Grid(("fdip",), (*_AXES, ("predictor", ("tage", "bimodal", "never_taken")))),),
    render=render,
)


def run(scale_name: str | None = None, workloads: tuple[str, ...] | None = None) -> ExperimentResult:
    return SPEC.run(scale_name, workloads=workloads)


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
