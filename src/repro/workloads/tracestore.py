"""Persistent, content-addressed store of built workloads (CFG + trace).

Building a workload is deterministic but not free: at full scale the CFG
builder and trace walker together cost the better part of a second per
profile, and before this store existed every pool worker (and every cold
process) paid it again. The store persists one record per built workload::

    <cache_dir>/
      <TRACE_SCHEMA_TAG>/                  # e.g. "trace-v4-<fingerprint>"
        <profile>__<digest16>__L<len>.wkld

keyed by an **exhaustive content digest of the frozen WorkloadProfile
tree** (every field contributes via the same canonicalization as the
result cache's config digest — no hand-picked field list to go stale)
plus the requested trace length. Records written by a profile that merely
*shares a name* with another can therefore never be served for it, the
same guarantee the result cache's config digest gives.

Record format (binary, one file per workload)::

    magic | u32 header length | u32 crc32 | JSON header | typed arrays

The crc32 covers every byte after it (header and arrays), so a flipped
byte or a short write cannot decode into a different build. The header
carries the schema tag, the full profile digest, the requested length,
the derived trace seed, the CFG's name, entry and function names, and
one (name, typecode, nbytes) triple per array, so a record is
self-describing. The arrays are ``array`` buffers written as-is, in
:data:`_ARRAYS` order: the five trace columns
(:data:`~repro.workloads.trace.COLUMN_SPECS`, no next pc: the start
column ends with the last record's), then the CFG's own columns
(:data:`~repro.workloads.cfg.CFG_ARRAYS`: one array per scalar
:class:`~repro.workloads.cfg.StaticBlock` field, the indirect-target
pools and the functions as offset-indexed flat arrays). A
:class:`~repro.workloads.cfg.ControlFlowGraph` holds its blocks as those
columns, so ``put`` writes ``cfg.arrays`` and a load hands the arrays it
read to :meth:`~repro.workloads.cfg.ControlFlowGraph.from_arrays`, which
only builds the graph's indexes. A record holds only numbers and
strings: no object is rebuilt by class name, so a load cannot run code.

Records are written atomically (temp file + ``os.replace``). A missing
or unreadable record is a miss; a record that exists but fails a check
(magic, checksum, header JSON, schema/digest/length, per-array
typecode/nbytes, array consistency, unique and aligned block starts) is
counted as ``corrupt`` and also returned as a miss, never raised.

:data:`TRACE_SCHEMA_TAG` mirrors :data:`repro.runtime.cache.SCHEMA_TAG`:
a manual major tag plus a fingerprint of the workload-semantics sources
(this package but its ``__main__.py`` CLI, plus ``repro/config.py``,
whose ``INSTR_BYTES``/``BLOCK_BYTES`` shape the layout). Any change to
profiles, the builder, the walker or the storage representation orphans
old records automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import zlib
from array import array
from operator import le
from pathlib import Path

from ..errors import CorruptRecord, WorkloadError
from ..tagdirs import PKG_ROOT, source_fingerprint
from .cfg import CFG_ARRAYS, ControlFlowGraph
from .isa import BranchKind
from .profiles import WorkloadProfile
from .trace import COLUMN_SPECS, Trace

#: Bump on record *format* changes; semantic changes are fingerprinted.
_SCHEMA_MAJOR = "trace-v4"

#: First bytes of every record file.
_MAGIC = b"BWKLD2\n"

#: Digest prefix length used in filenames (full digest verified on read).
_NAME_DIGEST_CHARS = 16

#: After the magic: JSON header length, then crc32 of header + arrays.
_PREFIX = struct.Struct("<II")

#: Every array of a record, in record order: trace columns, then the CFG's.
_ARRAYS = tuple((f"trace.{name}", tc) for name, tc in COLUMN_SPECS) + CFG_ARRAYS

#: Header keys a reader relies on, with their JSON types.
_HEADER_TYPES = {
    "schema": str,
    "profile_digest": str,
    "length": int,
    "trace_seed": int,
    "n_instrs": int,
    "cfg_name": str,
    "cfg_entry": int,
    "function_names": list,
    "arrays": list,
}

_KIND_BY_VALUE = {int(kind): kind for kind in BranchKind}

#: How many leading CFG arrays hold one entry per block.
_N_BLOCK_ARRAYS = sum(name.startswith("block.") for name, _ in CFG_ARRAYS)

def _trace_sources(pkg_root: Path = PKG_ROOT) -> list[Path]:
    """Every source file that can change a built workload.

    The workload CLI (``__main__.py``) only inspects and prints, so it is
    left out: editing it must not orphan stored builds.
    """
    workloads = (pkg_root / "workloads").glob("*.py")
    return [p for p in workloads if p.name != "__main__.py"] + [pkg_root / "config.py"]


#: Versions every record; recomputed from source so it can never go stale.
TRACE_SCHEMA_TAG = f"{_SCHEMA_MAJOR}-{source_fingerprint(_trace_sources())}"


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


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CorruptRecord(what)


class TraceStore:
    """Directory-backed store of built (CFG, trace) workload records.

    Every :meth:`get` counts as exactly one of ``hits``, ``misses`` (no
    readable record) or ``corrupt`` (a record that failed a check);
    ``hit_bytes`` sums the sizes of the records served.
    """

    def __init__(self, cache_dir: str | os.PathLike):
        self.root = Path(cache_dir) / TRACE_SCHEMA_TAG
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.hit_bytes = 0

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
        try:
            blob = self._path(profile.name, digest, length).read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            built = _decode_record(blob, digest, length)
        except CorruptRecord:
            self.corrupt += 1
            return None
        self.hits += 1
        self.hit_bytes += len(blob)
        return built

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
        arrays = [*trace.columns, *cfg.arrays]
        header = json.dumps(
            {
                "schema": TRACE_SCHEMA_TAG,
                "profile_digest": digest,
                "profile_name": profile.name,
                "length": length,
                "trace_seed": trace.seed,
                "n_instrs": trace.n_instrs,
                "cfg_name": cfg.name,
                "cfg_entry": cfg.entry,
                "function_names": cfg.function_names,
                "arrays": [
                    [name, arr.typecode, len(arr) * arr.itemsize]
                    for (name, _), arr in zip(_ARRAYS, arrays)
                ],
            },
            separators=(",", ":"),
        ).encode()
        crc = zlib.crc32(header)
        for arr in arrays:
            crc = zlib.crc32(arr, crc)
        path = self._path(profile.name, digest, length)
        try:
            with atomic_writer(path, mode="wb") as fh:
                fh.write(_MAGIC)
                fh.write(_PREFIX.pack(len(header), crc))
                fh.write(header)
                for arr in arrays:
                    fh.write(arr)
        except OSError:
            return  # a read-only or full store degrades to no caching
        self.stores += 1


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def _check_offsets(offsets: array, n_owners: int, n_items: int, what: str) -> None:
    _check(len(offsets) == n_owners + 1, f"{what} count")
    _check(
        offsets[0] == 0
        and offsets[-1] == n_items
        and all(map(le, offsets, offsets[1:])),
        f"{what} range",
    )


def _decode_record(
    blob: bytes, digest: str, length: int
) -> tuple[ControlFlowGraph, Trace]:
    """Decode one record; raises :class:`CorruptRecord` naming the failed check."""
    _check(blob.startswith(_MAGIC), "magic")
    offset = len(_MAGIC) + _PREFIX.size
    _check(len(blob) >= offset, "record prefix")
    header_len, crc = _PREFIX.unpack_from(blob, len(_MAGIC))
    view = memoryview(blob)  # zero-copy slices for the bulk payloads
    _check(zlib.crc32(view[offset:]) == crc, "checksum")
    try:
        header = json.loads(view[offset : offset + header_len].tobytes())
    except ValueError:
        header = None
    _check(isinstance(header, dict), "header JSON")
    _check(
        all(isinstance(header.get(k), t) for k, t in _HEADER_TYPES.items()),
        "header fields",
    )
    _check(header["schema"] == TRACE_SCHEMA_TAG, "schema")
    _check(header["profile_digest"] == digest, "profile digest")
    _check(header["length"] == length, "trace length")
    offset += header_len
    entries = header["arrays"]
    _check(len(entries) == len(_ARRAYS), "array count")
    arrays: list[array] = []
    for (name, typecode), entry in zip(_ARRAYS, entries):
        _check(
            isinstance(entry, list)
            and len(entry) == 3
            and entry[:2] == [name, typecode],
            f"{name} typecode",
        )
        arr = array(typecode)
        nbytes = entry[2]
        _check(
            isinstance(nbytes, int) and 0 <= nbytes <= len(blob) - offset
            and nbytes % arr.itemsize == 0,
            f"{name} nbytes",
        )
        arr.frombytes(view[offset : offset + nbytes])
        offset += nbytes
        arrays.append(arr)
    _check(offset == len(blob), "record length")
    cfg = _decode_cfg(
        arrays[len(COLUMN_SPECS) :],
        header["cfg_name"],
        header["cfg_entry"],
        header["function_names"],
    )
    try:
        trace = Trace(
            cfg=cfg,
            columns=tuple(arrays[: len(COLUMN_SPECS)]),
            seed=header["trace_seed"],
            n_instrs=header["n_instrs"],
        )
    except WorkloadError as exc:
        raise CorruptRecord(f"trace columns: {exc}") from None
    return cfg, trace


def _decode_cfg(
    arrays: list[array], name: str, entry: int, function_names: list
) -> ControlFlowGraph:
    """The CFG over ``arrays``, used as-is; raises :class:`CorruptRecord`."""
    starts, kinds = arrays[0], arrays[2]
    (ind_offsets, ind_target, ind_weight, f_ids, f_entries, f_layers,
     block_offsets, block_starts) = arrays[_N_BLOCK_ARRAYS:]
    n_blocks = len(starts)
    _check(
        all(len(a) == n_blocks for a in arrays[1:_N_BLOCK_ARRAYS]),
        "block array lengths",
    )
    _check(set(kinds) <= _KIND_BY_VALUE.keys(), "block kinds")
    _check(len(ind_target) == len(ind_weight), "indirect array lengths")
    _check_offsets(ind_offsets, n_blocks, len(ind_target), "indirect offsets")
    n_funcs = len(function_names)
    _check(
        len(f_ids) == len(f_entries) == len(f_layers) == n_funcs
        and all(isinstance(f, str) for f in function_names),
        "function array lengths",
    )
    _check_offsets(block_offsets, n_funcs, len(block_starts), "function block offsets")
    try:
        return ControlFlowGraph.from_arrays(arrays, function_names, entry, name)
    except WorkloadError as exc:
        raise CorruptRecord(f"block starts: {exc}") from None


#: Shape of a directory name this store could have written; the lifecycle
#: in :mod:`repro.tagdirs` only ever scans or deletes matching directories.
_TAG_DIR_RE = re.compile(r"^trace-v\d+-[0-9a-f]{12}$")
