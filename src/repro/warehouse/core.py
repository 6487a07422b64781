"""The SQLite result warehouse: a snapshot rebuilt from the stores.

The stores the runtime writes — exact result records (``engine-v*``
tags) and analytic estimates (``analytic-v*`` tags) — are
optimized for *producing* results. Answering questions across them
(contour tables, sensitivity matrices) meant ad-hoc JSONL spelunking.
The warehouse is the queryable snapshot: one SQLite database (stdlib
:mod:`sqlite3`, WAL mode) living beside the tag directories::

    <cache-dir>/warehouse.sqlite

``python -m repro.warehouse refresh`` scans every tag directory's
one-file records (the files :class:`~repro.runtime.cache.ResultCache`
reads) and **rebuilds** the ``cells`` table from them: rows are keyed
by ``(workload, scale token, config digest, schema tag, fidelity
tier)``, and the table holds exactly the readable records — a pruned
tag or a deleted record leaves no row behind. The rebuild runs in
**one transaction**: read the old ``(key, content digest)`` map, delete
every row, insert every record, commit. A refresh SIGKILLed at any
instant therefore leaves the previous snapshot fully readable, and the
next refresh converges to the same state (``tests/test_faults.py`` pins
this with real subprocesses via the ``warehouse-refresh`` faultpoint).
The old digest map only feeds the counts a refresh reports (inserted,
updated, unchanged, removed); no history is kept.

The exact/analytic tiers stay isolated at the SQL layer: the fidelity
tier is part of the primary key, analytic rows carry their
self-reported ``analytic_rel_err_bound``, and the canned queries
(:mod:`repro.warehouse.queries`) always prefer exact rows — an estimate
can never shadow an exact result.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigError
from ..runtime.atomicio import CorruptRecord, read_json
from ..runtime.cache import ANALYTIC_SCHEMA_TAG, SCHEMA_TAG, tag_tier
from ..runtime.faultpoints import maybe_fault

#: Bump on warehouse *database* format changes (tables, key shape).
WAREHOUSE_SCHEMA = "warehouse-v3"

#: The database filename, beside the schema-tag directories.
DB_NAME = "warehouse.sqlite"

#: The warehouse's on-disk table shapes. Any edit here is an on-disk
#: format change: bump :data:`WAREHOUSE_SCHEMA` and refresh the
#: reprolint baseline (RPL004 fingerprints this tuple).
_DDL: tuple[str, ...] = (
    "CREATE TABLE IF NOT EXISTS meta (\n"
    "  key TEXT PRIMARY KEY,\n"
    "  value TEXT NOT NULL\n"
    ")",
    "CREATE TABLE IF NOT EXISTS cells (\n"
    "  workload TEXT NOT NULL,\n"
    "  scale TEXT NOT NULL,\n"
    "  config_digest TEXT NOT NULL,\n"
    "  schema_tag TEXT NOT NULL,\n"
    "  fidelity TEXT NOT NULL,\n"
    "  mechanism TEXT NOT NULL,\n"
    "  ipc REAL,\n"
    "  cycles REAL,\n"
    "  retired_instrs REAL,\n"
    "  analytic_rel_err_bound REAL NOT NULL DEFAULT 0.0,\n"
    "  raw TEXT NOT NULL,\n"
    "  content_digest TEXT NOT NULL,\n"
    "  PRIMARY KEY (workload, scale, config_digest, schema_tag, fidelity)\n"
    ")",
)


def db_path(cache_dir: str | os.PathLike[str]) -> Path:
    """Where the warehouse database lives inside a cache directory."""
    return Path(cache_dir) / DB_NAME


def connect(cache_dir: str | os.PathLike[str]) -> sqlite3.Connection:
    """Open (creating if needed) the warehouse database, WAL mode.

    The schema is created and the :data:`WAREHOUSE_SCHEMA` tag committed
    *before* any consolidation, so a reader — or a crash-recovery check —
    can always open the file and query it, however a later refresh dies.
    A database written by a different warehouse schema is refused rather
    than misread.
    """
    path = db_path(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    conn.isolation_level = None  # explicit BEGIN/COMMIT only
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("BEGIN IMMEDIATE")
    for statement in _DDL:
        conn.execute(statement)
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema'"
    ).fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema', ?)",
            (WAREHOUSE_SCHEMA,),
        )
    elif row[0] != WAREHOUSE_SCHEMA:
        conn.execute("ROLLBACK")
        conn.close()
        raise ConfigError(
            f"{path} was written by warehouse schema {row[0]!r} (this code "
            f"is {WAREHOUSE_SCHEMA!r}); delete the file and re-run "
            f"`python -m repro.warehouse refresh` to rebuild it"
        )
    conn.execute("COMMIT")
    return conn


# ---------------------------------------------------------------------------
# Source scanning (result records, analytic estimates)
# ---------------------------------------------------------------------------


#: (workload, scale token, config digest, schema tag, fidelity tier).
CellKey = tuple[str, str, str, str, str]


@dataclass(frozen=True)
class SourceCell:
    """One readable result record found on disk during a refresh scan."""

    key: CellKey
    mechanism: str
    raw: dict[str, object]
    content_digest: str


def _content_digest(mechanism: str, raw: dict[str, object]) -> str:
    payload = json.dumps(
        {"mechanism": mechanism, "raw": raw}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _record_cell(record: dict, tag: str, fidelity: str) -> SourceCell | None:
    """Validate one on-disk record into a :class:`SourceCell`, or drop it."""
    if record.get("schema") != tag:
        return None
    workload = record.get("workload")
    scale = record.get("scale")
    digest = record.get("config_digest")
    raw = record.get("raw")
    if not (
        isinstance(workload, str)
        and isinstance(scale, str)
        and isinstance(digest, str)
        and isinstance(raw, dict)
    ):
        return None
    mechanism = record.get("mechanism")
    if not isinstance(mechanism, str):
        mechanism = ""
    return SourceCell(
        key=(workload, scale, digest, tag, fidelity),
        mechanism=mechanism,
        raw=raw,
        content_digest=_content_digest(mechanism, raw),
    )


def _scan_tag_dir(
    tag_dir: Path, fidelity: str, cells: dict[CellKey, SourceCell]
) -> int:
    """Add every readable ``*.json`` record under one schema-tag directory
    to ``cells``; returns how many records were damaged.

    Records of stale tags written before the checksum existed carry no
    ``crc32`` and are still consolidated; a current tag's must carry one.
    """
    tag = tag_dir.name
    corrupt = 0
    for workload_dir in sorted(p for p in tag_dir.iterdir() if p.is_dir()):
        for path in sorted(workload_dir.glob("*.json")):
            try:
                record = read_json(path, current=(SCHEMA_TAG, ANALYTIC_SCHEMA_TAG))
            except CorruptRecord:
                corrupt += 1
                continue
            cell = _record_cell(record, tag, fidelity) if record else None
            if cell is not None:
                cells[cell.key] = cell
    return corrupt


def scan_sources(
    cache_dir: str | os.PathLike[str],
) -> tuple[dict[CellKey, SourceCell], int]:
    """Every readable result record in a cache directory, both tiers, and
    the number of damaged records.

    Engine tags (``engine-v*``) contribute exact cells; analytic tags
    (``analytic-v*``) contribute estimated cells. Unreadable, damaged or
    wrongly-shaped records are skipped, never raised — the warehouse
    consolidates what is readable, exactly like the caches themselves.
    """
    root = Path(cache_dir)
    cells: dict[CellKey, SourceCell] = {}
    corrupt = 0
    if not root.is_dir():
        return cells, corrupt
    for tag_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        fidelity = tag_tier(tag_dir.name)
        if fidelity is not None:
            corrupt += _scan_tag_dir(tag_dir, fidelity, cells)
    return cells, corrupt


def _cell_metrics(
    raw: dict[str, object],
) -> tuple[float | None, float | None, float | None, float]:
    """(ipc, cycles, retired, analytic error bound) from a record's raw counters."""

    def number(key: str) -> float | None:
        value = raw.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    cycles = number("cycles")
    retired = number("retired_instrs")
    ipc = None
    if cycles is not None and retired is not None and cycles > 0:
        ipc = retired / cycles
    return ipc, cycles, retired, number("analytic_rel_err_bound") or 0.0


# ---------------------------------------------------------------------------
# The rebuild
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefreshStats:
    """How one ``refresh`` changed the snapshot (no changes = converged)."""

    inserted: int = 0
    updated: int = 0
    unchanged: int = 0
    removed: int = 0
    #: Exact records left out because their ``crc32`` did not match.
    corrupt: int = 0

    @property
    def changes(self) -> int:
        return self.inserted + self.updated + self.removed

    def summary(self) -> str:
        corrupt = f", {self.corrupt} corrupt" if self.corrupt else ""
        return (
            f"+{self.inserted} inserted, ~{self.updated} updated, "
            f"-{self.removed} removed, {self.unchanged} unchanged{corrupt}"
        )


_INSERT_CELL = (
    "INSERT INTO cells (workload, scale, config_digest, schema_tag, fidelity,"
    " mechanism, ipc, cycles, retired_instrs, analytic_rel_err_bound, raw,"
    " content_digest) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


def refresh_warehouse(cache_dir: str | os.PathLike[str]) -> RefreshStats:
    """Rebuild ``cells`` from the stores; returns what changed.

    The scan happens outside any transaction. The rebuild — read the old
    content digests, delete every row, insert every readable record —
    is one transaction, so a SIGKILL mid-rebuild leaves the previous
    snapshot intact, and a re-run against unchanged stores reports zero
    changes.
    """
    source, corrupt = scan_sources(cache_dir)
    conn = connect(cache_dir)
    try:
        conn.execute("BEGIN IMMEDIATE")
        old: dict[CellKey, str] = {
            (str(r[0]), str(r[1]), str(r[2]), str(r[3]), str(r[4])): str(r[5])
            for r in conn.execute(
                "SELECT workload, scale, config_digest, schema_tag, fidelity,"
                " content_digest FROM cells"
            )
        }
        conn.execute("DELETE FROM cells")
        for key, cell in source.items():
            maybe_fault("warehouse-refresh")
            conn.execute(
                _INSERT_CELL,
                (
                    *key,
                    cell.mechanism,
                    *_cell_metrics(cell.raw),
                    json.dumps(cell.raw, sort_keys=True, separators=(",", ":")),
                    cell.content_digest,
                ),
            )
        conn.execute("COMMIT")
    finally:
        conn.close()
    kept = [old[k] == cell.content_digest for k, cell in source.items() if k in old]
    return RefreshStats(
        inserted=len(source) - len(kept),
        updated=kept.count(False),
        unchanged=kept.count(True),
        removed=len(old.keys() - source.keys()),
        corrupt=corrupt,
    )


# ---------------------------------------------------------------------------
# Snapshot introspection (the ``status`` CLI, and test assertions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarehouseStatus:
    """Aggregate counts of one warehouse database."""

    schema: str
    cells: int
    #: (schema_tag, fidelity, row count), sorted by tag.
    by_tag: tuple[tuple[str, str, int], ...]


def read_status(conn: sqlite3.Connection) -> WarehouseStatus:
    schema_row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
    by_tag = tuple(
        (str(r[0]), str(r[1]), int(r[2]))
        for r in conn.execute(
            "SELECT schema_tag, fidelity, COUNT(*) FROM cells"
            " GROUP BY schema_tag, fidelity ORDER BY schema_tag, fidelity"
        )
    )
    return WarehouseStatus(
        schema=str(schema_row[0]) if schema_row is not None else "",
        cells=sum(count for _, _, count in by_tag),
        by_tag=by_tag,
    )
