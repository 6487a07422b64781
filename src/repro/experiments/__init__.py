"""Regeneration harness: one module per paper exhibit.

Each module exposes ``run(scale_name=None, ...) -> ExperimentResult`` and a
``main()`` that prints the table. A simulated exhibit's module is its
``SPEC`` (a :class:`~repro.experiments.grid.SweepSpec`, also registered in
:data:`SWEEPS`) plus the ``render`` that tabulates it; Figure 4 (trace
analysis) and the storage table (analytic) run no simulations and stay
plain modules. ``python -m repro.experiments`` runs the whole set. Scale
via ``REPRO_SCALE`` = ``quick`` | ``default`` | ``full``.
"""

from __future__ import annotations

from . import (
    ablations,
    branch_distance,
    btb_size_sweep,
    coverage_vs_latency,
    crossbar,
    miss_breakdown,
    opportunity,
    speedup,
    squashes,
    stall_coverage,
    storage_costs,
    sweeps,
    throttle_sweep,
)
from .common import (
    SCALES,
    ExperimentResult,
    ExperimentScale,
    get_scale,
    workload_names,
)
from .sweeps import SWEEPS, SweepSpec, get_sweep

#: Exhibit id -> experiment module, in paper order.
EXPERIMENTS = {
    "figure1": opportunity,
    "figure2": coverage_vs_latency,
    "figure3": miss_breakdown,
    "figure4": branch_distance,
    "figure5": btb_size_sweep,
    "figure7": squashes,
    "figure8": stall_coverage,
    "figure9": speedup,
    "figure10": throttle_sweep,
    "figure11": crossbar,
    "storage": storage_costs,
    "ablations": ablations,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentScale",
    "SCALES",
    "SWEEPS",
    "SweepSpec",
    "get_scale",
    "get_sweep",
    "workload_names",
]
