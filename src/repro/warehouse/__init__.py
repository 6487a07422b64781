"""repro.warehouse — the queryable SQLite snapshot of every result store.

See :mod:`repro.warehouse.core` for the rebuild and
:mod:`repro.warehouse.queries` for the canned queries. Entry point::

    python -m repro.warehouse refresh --cache-dir ~/.repro-cache
    python -m repro.warehouse contour dense-latency-btb --cache-dir ...
"""

from __future__ import annotations

from .core import (
    DB_NAME,
    WAREHOUSE_SCHEMA,
    RefreshStats,
    WarehouseStatus,
    connect,
    db_path,
    read_status,
    refresh_warehouse,
)
from .queries import QUERIES, lookup_cell

#: The canned query names the CLI exposes.
QUERY_NAMES = tuple(QUERIES)

__all__ = [
    "DB_NAME",
    "QUERIES",
    "QUERY_NAMES",
    "WAREHOUSE_SCHEMA",
    "RefreshStats",
    "WarehouseStatus",
    "connect",
    "db_path",
    "lookup_cell",
    "read_status",
    "refresh_warehouse",
]
