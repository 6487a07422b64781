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
``devtools`` linter, the ``__main__.py`` command-line entry points and
the ``envopts``/``tagdirs`` modules).
Any change to engine semantics, counters, workload generation or config
defaults therefore orphans old records without anyone having to remember
a version bump — the same no-hand-maintained-list principle as the
config digest. Stale-tag records are simply never read (they live under
the old tag's directory) and ``python -m repro.runtime prune`` deletes
them with every other store's stale tags (:mod:`repro.tagdirs`).
:data:`ANALYTIC_SCHEMA_TAG` fingerprints the analytic package and
:data:`SCHEMA_TAG`: an estimate calibrated against a dead engine
version is itself dead.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from ..core.results import SimulationResult
from ..errors import CorruptRecord
from ..tagdirs import PKG_ROOT, source_fingerprint
from .atomicio import atomic_write_json, read_json

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

#: Top-level modules that cannot change a result either: ``envopts.py``
#: (every option that selects work reaches a job's config digest or
#: workload name, so no option default can change a result) and
#: ``tagdirs.py`` (the stores' lifecycle code only lists and deletes tag
#: directories).
_NON_SEMANTIC_FILES = ("envopts.py", "tagdirs.py")


def _engine_sources(pkg_root: Path = PKG_ROOT) -> list[Path]:
    """Every simulator-side source file under the ``repro`` package.

    Command-line entry points (``__main__.py``) are skipped wherever they
    live: they parse flags and print, and never feed a simulation.
    """
    sources: list[Path] = []
    for path in pkg_root.rglob("*.py"):
        rel = path.relative_to(pkg_root)
        if not (
            rel.parts[0] in _NON_SEMANTIC_DIRS
            or path.name == "__main__.py"
            or rel.as_posix() in _NON_SEMANTIC_FILES
        ):
            sources.append(path)
    return sources


#: Versions every record; recomputed from source so it can never go stale.
SCHEMA_TAG = f"{_SCHEMA_MAJOR}-{source_fingerprint(_engine_sources())}"

#: Versions every analytic record; never equal to an engine tag.
#: It fingerprints the analytic package salted with :data:`SCHEMA_TAG`.
ANALYTIC_SCHEMA_TAG = (
    f"{_ANALYTIC_MAJOR}-"
    f"{source_fingerprint((PKG_ROOT / 'analytic').glob('*.py'), salt=SCHEMA_TAG)}"
)

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


#: Shapes of a directory name this cache could have written (a major tag
#: and the 12-hex-digit source fingerprint), one per tier; the lifecycle
#: in :mod:`repro.tagdirs` only ever scans or deletes matching directories.
_TAG_DIR_RE = re.compile(r"^engine-v\d+-[0-9a-f]{12}$")
_ANALYTIC_TAG_DIR_RE = re.compile(r"^analytic-v\d+-[0-9a-f]{12}$")
