"""The SQLite result warehouse: consolidation, change history, provenance.

The stores the runtime writes — exact result records (``engine-v*``
tags) and analytic estimates (``analytic-v*`` tags) — are
optimized for *producing* results. Answering questions across them
(contour tables, sensitivity matrices) meant ad-hoc JSONL spelunking.
The warehouse is the queryable snapshot: one SQLite database (stdlib
:mod:`sqlite3`, WAL mode) living beside the tag directories::

    <cache-dir>/warehouse.sqlite

``python -m repro.warehouse refresh`` scans every tag directory's
one-file records (the files :class:`~repro.runtime.cache.ResultCache`
reads) and **consolidates incrementally**: rows are keyed by
``(workload, scale token, config digest, schema tag, fidelity tier)``
and each refresh classifies every key as

* **insert** — never seen before,
* **update** — content changed under an existing key,
* **reactivate** — a previously deactivated key reappeared on disk,
* **deactivate** — an active key vanished from disk (pruned tag,
  deleted record),

or *unchanged* (touched not at all — the refresh is idempotent, and a
re-run against unchanged stores writes zero revision rows). Every
applied change appends to the ``revisions`` table, and every refresh
records its provenance in ``refreshes``: worker id, the engine and
analytic schema tags in force, and the source commit. The whole
consolidation runs in **one transaction**, so a refresh SIGKILLed at
any instant leaves the previous snapshot fully readable and contributes
*zero* revision rows — the next refresh converges to exactly the same
state with an exactly-once change history (``tests/test_faults.py``
pins this with real subprocesses via the ``warehouse-refresh``
faultpoint).

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
import socket
import sqlite3
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from ..analytic.store import ANALYTIC_SCHEMA_TAG
from ..errors import ConfigError
from ..runtime.cache import SCHEMA_TAG as ENGINE_SCHEMA_TAG
from ..runtime.faultpoints import maybe_fault

#: Bump on warehouse *database* format changes (tables, key shape).
WAREHOUSE_SCHEMA = "warehouse-v2"

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
    "  active INTEGER NOT NULL DEFAULT 1,\n"
    "  first_seen INTEGER NOT NULL,\n"
    "  last_seen INTEGER NOT NULL,\n"
    "  PRIMARY KEY (workload, scale, config_digest, schema_tag, fidelity)\n"
    ")",
    "CREATE TABLE IF NOT EXISTS refreshes (\n"
    "  refresh_id INTEGER PRIMARY KEY AUTOINCREMENT,\n"
    "  started_at REAL NOT NULL,\n"
    "  worker TEXT NOT NULL,\n"
    "  engine_tag TEXT NOT NULL,\n"
    "  analytic_tag TEXT NOT NULL,\n"
    "  source_commit TEXT NOT NULL,\n"
    "  inserted INTEGER NOT NULL DEFAULT 0,\n"
    "  updated INTEGER NOT NULL DEFAULT 0,\n"
    "  reactivated INTEGER NOT NULL DEFAULT 0,\n"
    "  deactivated INTEGER NOT NULL DEFAULT 0,\n"
    "  unchanged INTEGER NOT NULL DEFAULT 0\n"
    ")",
    "CREATE TABLE IF NOT EXISTS revisions (\n"
    "  revision_id INTEGER PRIMARY KEY AUTOINCREMENT,\n"
    "  refresh_id INTEGER NOT NULL,\n"
    "  action TEXT NOT NULL,\n"
    "  workload TEXT NOT NULL,\n"
    "  scale TEXT NOT NULL,\n"
    "  config_digest TEXT NOT NULL,\n"
    "  schema_tag TEXT NOT NULL,\n"
    "  fidelity TEXT NOT NULL,\n"
    "  content_digest TEXT NOT NULL\n"
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


def _record_cell(record: object, tag: str, fidelity: str) -> SourceCell | None:
    """Validate one on-disk record into a :class:`SourceCell`, or drop it."""
    if not isinstance(record, dict):
        return None
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


def _scan_tag_dir(tag_dir: Path, fidelity: str) -> dict[CellKey, SourceCell]:
    """Every readable ``*.json`` record under one schema-tag directory."""
    tag = tag_dir.name
    cells: dict[CellKey, SourceCell] = {}
    for workload_dir in sorted(p for p in tag_dir.iterdir() if p.is_dir()):
        for path in sorted(workload_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # torn or foreign file: not a record
            cell = _record_cell(record, tag, fidelity)
            if cell is not None:
                cells[cell.key] = cell
    return cells


def scan_sources(cache_dir: str | os.PathLike[str]) -> dict[CellKey, SourceCell]:
    """Every readable result record in a cache directory, both tiers.

    Engine tags (``engine-v*``) contribute exact cells; analytic tags
    (``analytic-v*``) contribute estimated cells. Unreadable or
    wrongly-shaped records are skipped, never raised — the warehouse
    consolidates what is readable, exactly like the caches themselves.
    """
    from ..analytic.store import _TAG_DIR_RE as ANALYTIC_TAG_RE
    from ..runtime.cache import _TAG_DIR_RE as ENGINE_TAG_RE

    root = Path(cache_dir)
    cells: dict[CellKey, SourceCell] = {}
    if not root.is_dir():
        return cells
    for tag_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if ENGINE_TAG_RE.match(tag_dir.name):
            cells.update(_scan_tag_dir(tag_dir, "exact"))
        elif ANALYTIC_TAG_RE.match(tag_dir.name):
            cells.update(_scan_tag_dir(tag_dir, "analytic"))
    return cells


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


def _source_commit() -> str:
    """The current source commit, for refresh provenance (best effort)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


# ---------------------------------------------------------------------------
# Incremental consolidation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefreshStats:
    """What one ``refresh`` run changed (all zero = already converged)."""

    refresh_id: int
    inserted: int = 0
    updated: int = 0
    reactivated: int = 0
    deactivated: int = 0
    unchanged: int = 0

    @property
    def changes(self) -> int:
        return self.inserted + self.updated + self.reactivated + self.deactivated

    def summary(self) -> str:
        return (
            f"refresh #{self.refresh_id}: +{self.inserted} inserted, "
            f"~{self.updated} updated, ^{self.reactivated} reactivated, "
            f"-{self.deactivated} deactivated, {self.unchanged} unchanged"
        )


def _apply_cell_change(
    conn: sqlite3.Connection,
    refresh_id: int,
    action: str,
    key: CellKey,
    cell: SourceCell | None,
) -> None:
    """One consolidation step: mutate the row, append its revision."""
    maybe_fault("warehouse-refresh")
    workload, scale, digest, tag, fidelity = key
    content = cell.content_digest if cell is not None else ""
    if action == "insert" and cell is not None:
        ipc, cycles, retired, bound = _cell_metrics(cell.raw)
        conn.execute(
            "INSERT INTO cells (workload, scale, config_digest, schema_tag,"
            " fidelity, mechanism, ipc, cycles, retired_instrs,"
            " analytic_rel_err_bound, raw, content_digest, active,"
            " first_seen, last_seen)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 1, ?, ?)",
            (
                workload,
                scale,
                digest,
                tag,
                fidelity,
                cell.mechanism,
                ipc,
                cycles,
                retired,
                bound,
                json.dumps(cell.raw, sort_keys=True, separators=(",", ":")),
                cell.content_digest,
                refresh_id,
                refresh_id,
            ),
        )
    elif action in ("update", "reactivate") and cell is not None:
        ipc, cycles, retired, bound = _cell_metrics(cell.raw)
        conn.execute(
            "UPDATE cells SET mechanism = ?, ipc = ?, cycles = ?,"
            " retired_instrs = ?, analytic_rel_err_bound = ?, raw = ?,"
            " content_digest = ?, active = 1, last_seen = ?"
            " WHERE workload = ? AND scale = ? AND config_digest = ?"
            " AND schema_tag = ? AND fidelity = ?",
            (
                cell.mechanism,
                ipc,
                cycles,
                retired,
                bound,
                json.dumps(cell.raw, sort_keys=True, separators=(",", ":")),
                cell.content_digest,
                refresh_id,
                workload,
                scale,
                digest,
                tag,
                fidelity,
            ),
        )
    else:  # deactivate
        conn.execute(
            "UPDATE cells SET active = 0, last_seen = ?"
            " WHERE workload = ? AND scale = ? AND config_digest = ?"
            " AND schema_tag = ? AND fidelity = ?",
            (refresh_id, workload, scale, digest, tag, fidelity),
        )
    conn.execute(
        "INSERT INTO revisions (refresh_id, action, workload, scale,"
        " config_digest, schema_tag, fidelity, content_digest)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (refresh_id, action, workload, scale, digest, tag, fidelity, content),
    )


def refresh_warehouse(
    cache_dir: str | os.PathLike[str],
    worker: str | None = None,
) -> RefreshStats:
    """Scan the stores and consolidate the warehouse; returns what changed.

    Idempotent (a second run against unchanged stores applies zero
    changes) and crash-safe (the scan happens outside any transaction;
    every mutation — including the ``refreshes`` provenance row — commits
    atomically at the end, so a SIGKILL mid-consolidation leaves the
    previous snapshot intact and no partial revision history).
    """
    source = scan_sources(cache_dir)
    conn = connect(cache_dir)
    try:
        conn.execute("BEGIN IMMEDIATE")
        cursor = conn.execute(
            "INSERT INTO refreshes (started_at, worker, engine_tag,"
            " analytic_tag, source_commit) VALUES (?, ?, ?, ?, ?)",
            (
                time.time(),
                worker or f"{socket.gethostname()}-{os.getpid()}",
                ENGINE_SCHEMA_TAG,
                ANALYTIC_SCHEMA_TAG,
                _source_commit(),
            ),
        )
        refresh_id = int(cursor.lastrowid or 0)
        existing: dict[CellKey, tuple[str, int]] = {
            (str(r[0]), str(r[1]), str(r[2]), str(r[3]), str(r[4])): (
                str(r[5]),
                int(r[6]),
            )
            for r in conn.execute(
                "SELECT workload, scale, config_digest, schema_tag, fidelity,"
                " content_digest, active FROM cells"
            )
        }
        counts = {"insert": 0, "update": 0, "reactivate": 0, "deactivate": 0}
        unchanged = 0
        for key in sorted(source):
            cell = source[key]
            current = existing.get(key)
            if current is None:
                action = "insert"
            elif current[0] != cell.content_digest:
                action = "update"
            elif current[1] == 0:
                action = "reactivate"
            else:
                unchanged += 1
                continue
            counts[action] += 1
            _apply_cell_change(conn, refresh_id, action, key, cell)
        for key in sorted(existing):
            if key in source or existing[key][1] == 0:
                continue
            counts["deactivate"] += 1
            _apply_cell_change(conn, refresh_id, "deactivate", key, None)
        conn.execute(
            "UPDATE refreshes SET inserted = ?, updated = ?, reactivated = ?,"
            " deactivated = ?, unchanged = ? WHERE refresh_id = ?",
            (
                counts["insert"],
                counts["update"],
                counts["reactivate"],
                counts["deactivate"],
                unchanged,
                refresh_id,
            ),
        )
        conn.execute("COMMIT")
    finally:
        conn.close()
    return RefreshStats(
        refresh_id=refresh_id,
        inserted=counts["insert"],
        updated=counts["update"],
        reactivated=counts["reactivate"],
        deactivated=counts["deactivate"],
        unchanged=unchanged,
    )


# ---------------------------------------------------------------------------
# Snapshot introspection (the ``status`` CLI, and test assertions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarehouseStatus:
    """Aggregate counts of one warehouse database."""

    schema: str
    active_cells: int
    inactive_cells: int
    refreshes: int
    revisions: int
    #: (schema_tag, fidelity) -> active row count, sorted by tag.
    by_tag: tuple[tuple[str, str, int], ...]


def read_status(conn: sqlite3.Connection) -> WarehouseStatus:
    def one(sql: str) -> int:
        row = conn.execute(sql).fetchone()
        return int(row[0]) if row is not None else 0

    schema_row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
    by_tag = tuple(
        (str(r[0]), str(r[1]), int(r[2]))
        for r in conn.execute(
            "SELECT schema_tag, fidelity, COUNT(*) FROM cells WHERE active = 1"
            " GROUP BY schema_tag, fidelity ORDER BY schema_tag, fidelity"
        )
    )
    return WarehouseStatus(
        schema=str(schema_row[0]) if schema_row is not None else "",
        active_cells=one("SELECT COUNT(*) FROM cells WHERE active = 1"),
        inactive_cells=one("SELECT COUNT(*) FROM cells WHERE active = 0"),
        refreshes=one("SELECT COUNT(*) FROM refreshes"),
        revisions=one("SELECT COUNT(*) FROM revisions"),
        by_tag=by_tag,
    )
