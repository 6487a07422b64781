"""Named sweep grids: every exhibit's grid plus the standalone sweeps.

:data:`SWEEPS` holds each figure module's own ``SPEC`` under its exhibit
id (``figure9`` is the grid Figures 7, 8 and 9 share), next to grids that
belong to no figure: ``smoke``, ``dense-latency-btb`` and
``ablation-matrix``. The spec machinery lives in
:mod:`repro.experiments.grid`. Any of them is one command::

    python -m repro.experiments.sweeps list
    python -m repro.experiments.sweeps run smoke --jobs 4
    python -m repro.experiments.sweeps run figure9 --scale quick
    python -m repro.experiments.sweeps run dense-latency-btb \\
        --backend broker --cache-dir ~/.repro-cache

A figure's sweep submits exactly the jobs ``python -m repro.experiments``
runs for it and prints the same table. See ``docs/experiments.md`` for
the figure → module → sweep map (generated from :data:`SWEEPS` and
drift-checked in CI).
"""

from __future__ import annotations

from ...core.mechanisms import MECHANISMS
from ...errors import ConfigError
from .. import (
    ablations,
    btb_size_sweep,
    coverage_vs_latency,
    crossbar,
    miss_breakdown,
    opportunity,
    speedup,
    throttle_sweep,
)
from ..grid import KNOBS, Grid, SweepPoint, SweepResults, SweepSpec

__all__ = [
    "KNOBS",
    "SWEEPS",
    "Grid",
    "SweepPoint",
    "SweepResults",
    "SweepSpec",
    "get_sweep",
]

_SWEEP_LIST: tuple[SweepSpec, ...] = (
    SweepSpec(
        name="smoke",
        title="Smoke grid: FDIP vs Boomerang at two LLC latencies",
        description=(
            "Small end-to-end grid used by CI's broker smoke job and for "
            "trying out backends; finishes in minutes at quick scale."
        ),
        mechanisms=("fdip", "boomerang"),
        axes=(("llc_latency", (30, 70)),),
    ),
    opportunity.SPEC,
    coverage_vs_latency.SPEC,
    miss_breakdown.SPEC,
    btb_size_sweep.SPEC,
    speedup.SPEC,
    throttle_sweep.SPEC,
    crossbar.SPEC,
    ablations.SPEC,
    SweepSpec(
        name="dense-latency-btb",
        title="Dense 8-point latency × 5-point BTB grid (FDIP + Boomerang)",
        description=(
            "The ROADMAP's dense full-scale grid: 8 LLC latency points × 5 "
            "BTB sizes for FDIP and Boomerang with matched baselines — 720 "
            "simulations over the paper set; built for --backend broker."
        ),
        mechanisms=("fdip", "boomerang"),
        axes=(
            ("llc_latency", (1, 10, 20, 30, 40, 50, 60, 70)),
            ("btb_entries", (2048, 4096, 8192, 16384, 32768)),
        ),
    ),
    SweepSpec(
        name="ablation-matrix",
        title="Every mechanism × every profile (paper + extended)",
        description=(
            "Cross-profile ablation matrix: all 8 mechanisms over all 10 "
            "workload profiles, speedups against per-profile baselines."
        ),
        mechanisms=tuple(m for m in MECHANISMS if m != "none"),
        workload_set="all",
    ),
)

#: Sweep name -> spec, in presentation order.
SWEEPS: dict[str, SweepSpec] = {spec.name: spec for spec in _SWEEP_LIST}


def get_sweep(name: str) -> SweepSpec:
    try:
        return SWEEPS[name]
    except KeyError:
        known = ", ".join(SWEEPS)
        raise ConfigError(f"unknown sweep {name!r}; known sweeps: {known}") from None
