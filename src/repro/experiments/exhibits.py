"""The exhibit registry: every regenerated table or figure, in paper order.

``python -m repro.experiments`` runs these; importing this module imports
every exhibit module (and with the simulated ones, the grid machinery and
:mod:`repro.runtime`), which is why :mod:`repro.experiments` loads it
only when :data:`EXPERIMENTS` is first read.
"""

from __future__ import annotations

from types import ModuleType

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
    throttle_sweep,
)

#: Exhibit id -> experiment module, in paper order.
EXPERIMENTS: dict[str, ModuleType] = {
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
