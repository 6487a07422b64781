"""Analysis helpers: storage accounting and report formatting.

Every name resolves on first use, so importing the package (or
:mod:`~repro.analysis.tables` alone) does not load the storage model.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .storage import (
        StorageCost,
        boomerang_cost,
        btb_bytes,
        btb_prefetch_buffer_bytes,
        confluence_cost,
        dip_cost,
        fdip_cost,
        ftq_bytes,
        next_line_cost,
        pif_cost,
        rdip_cost,
        shift_cost,
        storage_comparison,
        stream_history_bytes,
        stream_index_bytes,
        two_level_btb_cost,
    )
    from .tables import format_bar, format_bar_chart, format_table, human_bytes

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    **dict.fromkeys(
        ("StorageCost", "boomerang_cost", "btb_bytes", "btb_prefetch_buffer_bytes",
         "confluence_cost", "dip_cost", "fdip_cost", "ftq_bytes", "next_line_cost",
         "pif_cost", "rdip_cost", "shift_cost", "storage_comparison",
         "stream_history_bytes", "stream_index_bytes", "two_level_btb_cost"),
        "storage",
    ),
    **dict.fromkeys(
        ("format_bar", "format_bar_chart", "format_table", "human_bytes"), "tables"
    ),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
