"""Regeneration harness: one module per paper exhibit.

Each module exposes ``run(scale_name=None, ...) -> ExperimentResult`` and a
``main()`` that prints the table. A simulated exhibit's module is its
``SPEC`` (a :class:`~repro.experiments.grid.SweepSpec`, also registered in
:data:`SWEEPS`) plus the ``render`` that tabulates it; Figure 4 (trace
analysis) and the storage table (analytic) run no simulations and stay
plain modules. ``python -m repro.experiments`` runs the whole set. Scale
via ``REPRO_SCALE`` = ``quick`` | ``default`` | ``full``.

Every name below resolves on first use: importing
:mod:`repro.experiments.common` (scales, workload names, result tables)
loads no exhibit, no sweep grid and nothing of :mod:`repro.runtime`.
:data:`EXPERIMENTS` (exhibit id -> module, in
:mod:`~repro.experiments.exhibits`) imports every exhibit module.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .common import (
        SCALES,
        ExperimentResult,
        ExperimentScale,
        get_scale,
        workload_names,
    )
    from .exhibits import EXPERIMENTS
    from .sweeps import SWEEPS, SweepSpec, get_sweep

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(
        ("SCALES", "ExperimentResult", "ExperimentScale", "get_scale", "workload_names"),
        "common",
    ),
    "EXPERIMENTS": "exhibits",
    **dict.fromkeys(("SWEEPS", "SweepSpec", "get_sweep"), "sweeps"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
