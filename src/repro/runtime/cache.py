"""Persistent on-disk cache of simulation results, exact and analytic.

Layout (all JSON)::

    <cache_dir>/
      <SCHEMA_TAG>/                 # e.g. "engine-v3" — bumped on any change
        <workload>/                 #     to engine semantics or counters
          s<scale>__<hash16>.json   # one record: scale token + digest prefix

One file per record is the only layout: :meth:`ResultCache.put` writes it
and :meth:`ResultCache.get` reads it. Any other file under a tag directory
(a temp file, clutter) is never read as a record. The analytic tier's
estimates are records of the same format under their own tag,
:data:`ANALYTIC_SCHEMA_TAG`, in a ``ResultCache(cache_dir,
ANALYTIC_SCHEMA_TAG)``; each record's tag is checked on read, so one
tier can never serve the other.

Each record stores the *full* config digest, so a (vanishingly unlikely)
filename-prefix collision is detected rather than returning a wrong
result. Records go through :mod:`repro.runtime.atomicio`: written
atomically with a ``crc32`` of their canonical JSON, and read back with
it checked, so a flipped byte cannot read back as different counters.
An absent or unreadable record file is a miss; a record file that fails
a check is counted as ``corrupt`` and also answers ``None``, never an
error.

:data:`SCHEMA_TAG` versions every record and is derived automatically: a
manual major tag plus a fingerprint of the simulator-side source tree
(everything under ``repro`` except the ``experiments``/``runtime``/
``analysis``/``analytic``/``warehouse`` layers, which consume raw
results and cannot affect the cached counters themselves, the
``devtools`` linter and the ``__main__.py`` command-line entry points).
Any change to engine semantics, counters, workload generation or config
defaults therefore orphans old records without anyone having to remember
a version bump — the same no-hand-maintained-list principle as the
config digest. Stale-tag records are simply never read (they live under
the old tag's directory) and can be deleted at leisure.
:data:`ANALYTIC_SCHEMA_TAG` fingerprints the analytic package and
:data:`SCHEMA_TAG`: an estimate calibrated against a dead engine
version is itself dead.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from ..core.results import SimulationResult
from .atomicio import CorruptRecord, atomic_write_json, read_json

#: Bump on cache *record format* changes; semantic changes are fingerprinted.
_SCHEMA_MAJOR = "engine-v3"

#: Bump on analytic record format changes; model/engine changes are
#: fingerprinted. v2: records carry a ``crc32``.
_ANALYTIC_MAJOR = "analytic-v2"

#: Subpackages that cannot change simulation results (consumers of them).
#: ``analytic`` estimates results but never produces exact ones; its
#: records carry their own tag (:data:`ANALYTIC_SCHEMA_TAG`, which
#: fingerprints this one), so a model change orphans estimates without
#: orphaning the exact records they were calibrated from.
#: ``warehouse`` only *reads* the stores into its SQLite snapshot — an
#: edit there must never orphan the records it consolidates. ``devtools``
#: only reads source text (the linter).
_NON_SEMANTIC_DIRS = (
    "experiments",
    "runtime",
    "analysis",
    "analytic",
    "warehouse",
    "devtools",
)

#: The ``repro`` package directory whose sources are fingerprinted.
_PKG_ROOT = Path(__file__).resolve().parents[1]


def _source_fingerprint(pkg_root: Path = _PKG_ROOT) -> str:
    """Hash every simulator-side source file under the ``repro`` package.

    Command-line entry points (``__main__.py``) are skipped wherever they
    live: they parse flags and print, and never feed a simulation. So is
    ``envopts.py``: every option that selects work reaches a job's config
    digest or workload name, so no option default can change a result.
    """
    digest = hashlib.sha256()
    for path in sorted(pkg_root.rglob("*.py")):
        rel = path.relative_to(pkg_root)
        if (
            rel.parts[0] in _NON_SEMANTIC_DIRS
            or path.name == "__main__.py"
            or str(rel) == "envopts.py"
        ):
            continue
        digest.update(str(rel).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _analytic_fingerprint(pkg_root: Path = _PKG_ROOT) -> str:
    """Hash the exact engine's tag and the analytic package's source."""
    digest = hashlib.sha256()
    digest.update(SCHEMA_TAG.encode())
    for path in sorted((pkg_root / "analytic").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


#: Versions every record; recomputed from source so it can never go stale.
SCHEMA_TAG = f"{_SCHEMA_MAJOR}-{_source_fingerprint()}"

#: Versions every analytic record; never equal to an engine tag.
ANALYTIC_SCHEMA_TAG = f"{_ANALYTIC_MAJOR}-{_analytic_fingerprint()}"

#: Digest prefix length used in filenames (full digest verified on read).
_NAME_DIGEST_CHARS = 16


class ResultCache:
    """Directory-backed store of :class:`SimulationResult` records, of the
    tier ``tag`` names: exact (:data:`SCHEMA_TAG`) or analytic.

    Every :meth:`get` counts as exactly one of ``hits``, ``misses`` (no
    readable record file) or ``corrupt`` (a record file that exists but
    fails a check), as :class:`~repro.workloads.tracestore.TraceStore`
    counts its lookups.
    """

    def __init__(self, cache_dir: str | os.PathLike, tag: str = SCHEMA_TAG):
        self.tag = tag
        self.root = Path(cache_dir) / tag
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    def _path(self, workload: str, scale_tok: str, digest: str) -> Path:
        name = f"s{scale_tok}__{digest[:_NAME_DIGEST_CHARS]}.json"
        return self.root / workload / name

    def get(
        self, workload: str, scale_tok: str, digest: str
    ) -> SimulationResult | None:
        """Return the cached result, or ``None`` on a miss or a corrupt record.

        A record is corrupt when its bytes are not a JSON object, its
        ``crc32`` does not match its content, or its schema, config
        digest, workload, scale or ``raw`` payload does not match the
        lookup. Neither case raises.
        """
        try:
            record = read_json(self._path(workload, scale_tok, digest))
        except CorruptRecord:
            record = {}  # fails every check below
        if record is None:
            self.misses += 1
            return None
        if (
            record.get("schema") != self.tag
            or record.get("config_digest") != digest
            or record.get("workload") != workload
            or record.get("scale") != scale_tok
            or not isinstance(record.get("raw"), dict)
        ):
            self.corrupt += 1
            return None
        self.hits += 1
        return SimulationResult(
            workload=record["workload"],
            mechanism=record.get("mechanism", ""),
            raw=record["raw"],
        )

    def put(
        self,
        workload: str,
        scale_tok: str,
        digest: str,
        result: SimulationResult,
    ) -> None:
        """Atomically persist one result record."""
        path = self._path(workload, scale_tok, digest)
        record = {
            "schema": self.tag,
            "workload": workload,
            "scale": scale_tok,
            "config_digest": digest,
            "mechanism": result.mechanism,
            "raw": result.raw,
        }
        try:
            atomic_write_json(path, record)
        except OSError:
            return  # a read-only or full cache dir degrades to no caching
        self.stores += 1


# ---------------------------------------------------------------------------
# Cache lifecycle (the ``python -m repro.runtime`` list/prune CLI)
# ---------------------------------------------------------------------------


#: Shapes of a directory name this cache could have written (any major
#: tag followed by the 12-hex-digit source fingerprint), one per tier.
#: ``scan_cache`` and ``prune_cache`` only ever look at — and delete —
#: matching directories, so pointing the CLI at a directory that merely
#: *contains* a cache (or at something else entirely) can never touch
#: foreign data.
_TAG_DIR_RE = re.compile(r"^engine-v\d+-[0-9a-f]{12}$")
_ANALYTIC_TAG_DIR_RE = re.compile(r"^analytic-v\d+-[0-9a-f]{12}$")


def tag_tier(name: str) -> str | None:
    """``"exact"`` or ``"analytic"`` for a tag directory name, else ``None``."""
    if _TAG_DIR_RE.match(name):
        return "exact"
    if _ANALYTIC_TAG_DIR_RE.match(name):
        return "analytic"
    return None


@dataclass(frozen=True)
class CacheTagInfo:
    """Aggregate of one schema-tag directory inside a cache dir."""

    tag: str
    #: Record files (``*.json``) under this tag.
    records: int
    #: Bytes of every regular file under this tag — what ``prune`` frees.
    size_bytes: int
    #: True when the tag is :data:`SCHEMA_TAG` or :data:`ANALYTIC_SCHEMA_TAG`.
    current: bool


def scan_cache(cache_dir: str | os.PathLike) -> list[CacheTagInfo]:
    """Record counts and sizes of every tag directory, both tiers.

    Only directories whose name has a tier's tag shape are considered;
    anything else living next to the cache is ignored. Tags sort
    current-first then by name, so a stale-tag listing reads off the top
    of the output. A missing directory is an empty cache. ``size_bytes``
    counts every regular file, records or not, so a tag holding only
    leftovers still shows the space ``prune`` reclaims.
    """
    root = Path(cache_dir)
    infos: list[CacheTagInfo] = []
    if not root.is_dir():
        return infos
    for tag_dir in sorted(
        p for p in root.iterdir() if p.is_dir() and tag_tier(p.name) is not None
    ):
        records = 0
        size = 0
        for path in tag_dir.rglob("*"):
            if not path.is_file():
                continue
            if path.suffix == ".json":
                records += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        infos.append(
            CacheTagInfo(
                tag=tag_dir.name,
                records=records,
                size_bytes=size,
                current=tag_dir.name in (SCHEMA_TAG, ANALYTIC_SCHEMA_TAG),
            )
        )
    infos.sort(key=lambda i: (not i.current, i.tag))
    return infos


def prune_cache(
    cache_dir: str | os.PathLike,
    schema_tag: str | None = None,
    dry_run: bool = False,
) -> list[CacheTagInfo]:
    """Delete stale tag directories; returns what was (or would be) removed.

    Without ``schema_tag`` every tag except the running code's current
    two (:data:`SCHEMA_TAG`, :data:`ANALYTIC_SCHEMA_TAG`) is removed —
    the normal "collect garbage after a few engine changes" call. With
    ``schema_tag`` only that tag is removed (including a current one, for
    a forced cold run). ``dry_run`` only reports. A tag whose directory
    survives the deletion attempt (e.g. a read-only mount) is *not*
    reported as removed, so callers never claim to have reclaimed space
    they did not.
    """
    root = Path(cache_dir)
    removed: list[CacheTagInfo] = []
    for info in scan_cache(cache_dir):
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
