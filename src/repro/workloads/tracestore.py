"""Persistent, content-addressed store of built workloads (CFG + trace).

Building a workload is deterministic but not free: at full scale the CFG
builder and trace walker together cost the better part of a second per
profile, and before this store existed every pool worker (and every cold
process) paid it again. The store persists one record per built workload::

    <cache_dir>/
      <TRACE_SCHEMA_TAG>/                  # e.g. "trace-v1-<fingerprint>"
        <profile>__<digest16>__L<len>.wkld

keyed by an **exhaustive content digest of the frozen WorkloadProfile
tree** (every field contributes via the same canonicalization as the
result cache's config digest — no hand-picked field list to go stale)
plus the requested trace length. Records written by a profile that merely
*shares a name* with another can therefore never be served for it — the
unsoundness PR 1 removed from the result cache, removed here from the
workload layer.

Record format (binary, one file per workload)::

    magic | u32 header length | JSON header | column payloads | CFG pickle

The header carries the schema tag, the full profile digest, the requested
length, the derived trace seed, and per-column (name, typecode, nbytes) so
a record is self-describing; the column payloads are ``array.tobytes`` of
the six trace columns. Records are written atomically (temp file +
``os.replace``) and any unreadable, truncated or mismatching record is a
miss, never an error.

:data:`TRACE_SCHEMA_TAG` mirrors :data:`repro.runtime.cache.SCHEMA_TAG`:
a manual major tag plus a fingerprint of the workload-semantics sources
(this package but its ``__main__.py`` CLI, plus ``repro/config.py``,
whose ``INSTR_BYTES``/``BLOCK_BYTES`` shape the layout). Any change to
profiles, the builder, the walker or the storage representation orphans
old records automatically.

The CFG payload uses :mod:`pickle`, which is only safe for trusted data;
records live in a local cache directory the user controls (the same trust
model as the result cache), and the schema/digest checks reject anything
this code did not write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
import struct
from array import array
from dataclasses import dataclass
from pathlib import Path

from .cfg import ControlFlowGraph
from .profiles import WorkloadProfile
from .trace import COLUMN_SPECS, Trace

#: Bump on record *format* changes; semantic changes are fingerprinted.
_SCHEMA_MAJOR = "trace-v1"

#: First bytes of every record file.
_MAGIC = b"BWKLD1\n"

#: Digest prefix length used in filenames (full digest verified on read).
_NAME_DIGEST_CHARS = 16


#: The ``repro`` package directory whose sources are fingerprinted.
_PKG_ROOT = Path(__file__).resolve().parents[1]


def _source_fingerprint(pkg_root: Path = _PKG_ROOT) -> str:
    """Hash every source file that can change a built workload.

    The workload CLI (``__main__.py``) only inspects and prints, so it is
    left out: editing it must not orphan stored builds.
    """
    pkg_dir = pkg_root / "workloads"
    digest = hashlib.sha256()
    paths = [p for p in sorted(pkg_dir.glob("*.py")) if p.name != "__main__.py"]
    for path in paths + [pkg_root / "config.py"]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


#: Versions every record; recomputed from source so it can never go stale.
TRACE_SCHEMA_TAG = f"{_SCHEMA_MAJOR}-{_source_fingerprint()}"


def profile_digest(profile: WorkloadProfile) -> str:
    """Hex SHA-256 of the full canonicalized profile tree.

    Every field of the frozen dataclass contributes (nested tuples
    included), so profiles that differ anywhere — not just by name — can
    never collide. Deferred import: ``repro.runtime`` imports this package
    back, and the function is never called at import time.
    """
    from ..runtime.confighash import canonicalize

    payload = json.dumps(
        canonicalize(profile), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def trace_seed(profile: WorkloadProfile) -> int:
    """The derived walker seed :func:`load_workload` uses for ``profile``."""
    return profile.seed * 7919 + 1


class TraceStore:
    """Directory-backed store of built (CFG, trace) workload records."""

    def __init__(self, cache_dir: str | os.PathLike):
        self.root = Path(cache_dir) / TRACE_SCHEMA_TAG
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, profile_name: str, digest: str, length: int) -> Path:
        safe_name = re.sub(r"[^A-Za-z0-9_.-]", "_", profile_name)
        return self.root / (
            f"{safe_name}__{digest[:_NAME_DIGEST_CHARS]}__L{length}.wkld"
        )

    # ---------------------------------------------------------------- read

    def get(
        self,
        profile: WorkloadProfile,
        length: int,
        digest: str | None = None,
    ) -> tuple[ControlFlowGraph, Trace] | None:
        """Return the stored (cfg, trace) build, or ``None`` on miss.

        ``digest`` lets callers that already computed the profile digest
        (``load_workload`` memoizes it) skip recomputing it here.
        """
        if digest is None:
            digest = profile_digest(profile)
        path = self._path(profile.name, digest, length)
        try:
            blob = path.read_bytes()
            parsed = self._parse(blob, digest, length)
        except Exception:
            # "Any unreadable, truncated or mismatching record is a miss,
            # never an error": corrupt pickle payloads alone can raise
            # nearly anything (AttributeError, ImportError, IndexError,
            # UnicodeDecodeError, ...), so no allowlist can be exhaustive.
            parsed = None
        if parsed is None:
            self.misses += 1
            return None
        self.hits += 1
        return parsed

    def _parse(
        self, blob: bytes, digest: str, length: int
    ) -> tuple[ControlFlowGraph, Trace] | None:
        if not blob.startswith(_MAGIC):
            return None
        view = memoryview(blob)  # zero-copy slices for the bulk payloads
        offset = len(_MAGIC)
        (header_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        header = json.loads(blob[offset : offset + header_len])
        offset += header_len
        if (
            header.get("schema") != TRACE_SCHEMA_TAG
            or header.get("profile_digest") != digest
            or header.get("length") != length
            or header.get("columns") is None
            or len(header["columns"]) != len(COLUMN_SPECS)
        ):
            return None
        columns: list[array] = []
        n_records = header["n_records"]
        for (name, typecode), (h_name, h_typecode, nbytes) in zip(
            COLUMN_SPECS, header["columns"]
        ):
            if h_name != name or h_typecode != typecode:
                return None
            col = array(typecode)
            col.frombytes(view[offset : offset + nbytes])
            offset += nbytes
            if len(col) != n_records:
                return None
            columns.append(col)
        cfg_bytes = header["cfg_bytes"]
        cfg = pickle.loads(view[offset : offset + cfg_bytes])
        if not isinstance(cfg, ControlFlowGraph):
            return None
        trace = Trace(
            cfg=cfg,
            columns=tuple(columns),
            seed=header["trace_seed"],
            n_instrs=header["n_instrs"],
        )
        return cfg, trace

    # --------------------------------------------------------------- write

    def put(
        self,
        profile: WorkloadProfile,
        length: int,
        cfg: ControlFlowGraph,
        trace: Trace,
        digest: str | None = None,
    ) -> None:
        """Atomically persist one built workload record."""
        # Deferred for the same reason as profile_digest's confighash
        # import: ``repro.runtime`` imports this package back, and the
        # method is never called at import time.
        from ..runtime.atomicio import atomic_writer

        if digest is None:
            digest = profile_digest(profile)
        path = self._path(profile.name, digest, length)
        payloads = [col.tobytes() for col in trace.columns]
        cfg_blob = pickle.dumps(cfg, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "schema": TRACE_SCHEMA_TAG,
                "profile_digest": digest,
                "profile_name": profile.name,
                "length": length,
                "trace_seed": trace.seed,
                "n_instrs": trace.n_instrs,
                "n_records": len(trace),
                "columns": [
                    [name, typecode, len(payload)]
                    for (name, typecode), payload in zip(COLUMN_SPECS, payloads)
                ],
                "cfg_bytes": len(cfg_blob),
            },
            separators=(",", ":"),
        ).encode()
        try:
            with atomic_writer(path, mode="wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<I", len(header)))
                fh.write(header)
                for payload in payloads:
                    fh.write(payload)
                fh.write(cfg_blob)
        except OSError:
            return  # a read-only or full store degrades to no caching
        self.stores += 1


# ---------------------------------------------------------------------------
# Store lifecycle (the ``python -m repro.workloads`` store-list/store-prune
# CLI) — same shape as the result-cache lifecycle in repro.runtime.cache.
# ---------------------------------------------------------------------------


#: Shape of a directory name this store could have written. Lifecycle
#: helpers only ever look at — and delete — matching directories, so a
#: cache dir shared with the result cache (or anything else) is safe.
_TAG_DIR_RE = re.compile(r"^trace-v\d+-[0-9a-f]{12}$")


@dataclass(frozen=True)
class TraceStoreTagInfo:
    """Aggregate of one schema-tag directory inside a store dir."""

    tag: str
    records: int
    size_bytes: int
    #: True when the tag matches the running code's :data:`TRACE_SCHEMA_TAG`.
    current: bool


def scan_trace_store(cache_dir: str | os.PathLike) -> list[TraceStoreTagInfo]:
    """Per-schema-tag workload-record counts and sizes under ``cache_dir``."""
    root = Path(cache_dir)
    infos: list[TraceStoreTagInfo] = []
    if not root.is_dir():
        return infos
    for tag_dir in sorted(
        p for p in root.iterdir() if p.is_dir() and _TAG_DIR_RE.match(p.name)
    ):
        records = 0
        size = 0
        for path in tag_dir.glob("*.wkld"):
            records += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        infos.append(
            TraceStoreTagInfo(
                tag=tag_dir.name,
                records=records,
                size_bytes=size,
                current=tag_dir.name == TRACE_SCHEMA_TAG,
            )
        )
    infos.sort(key=lambda i: (not i.current, i.tag))
    return infos


def prune_trace_store(
    cache_dir: str | os.PathLike,
    schema_tag: str | None = None,
    dry_run: bool = False,
) -> list[TraceStoreTagInfo]:
    """Delete stale trace-store tags; returns what was (or would be) removed.

    Without ``schema_tag`` every tag except the running code's
    :data:`TRACE_SCHEMA_TAG` is removed; with it only that tag is removed
    (including the current one, to force cold builds). A tag whose
    directory survives the deletion attempt is not reported as removed.
    """
    root = Path(cache_dir)
    removed: list[TraceStoreTagInfo] = []
    for info in scan_trace_store(root):
        if schema_tag is None:
            if info.current:
                continue
        elif info.tag != schema_tag:
            continue
        if dry_run:
            removed.append(info)
            continue
        tag_dir = root / info.tag
        shutil.rmtree(tag_dir, ignore_errors=True)
        if not tag_dir.exists():
            removed.append(info)
    return removed
