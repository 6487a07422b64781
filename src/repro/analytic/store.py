"""Persistent store for analytic (model-synthesized) cell records.

Mirrors the exact result cache's layout — one JSON record per cell under
``<cache_dir>/<tag>/<workload>/s<scale>__<hash16>.json`` — but under a
**disjoint schema tag** so the two populations can never mix::

    analytic-v1-<fingerprint12>     (this store)
    engine-v3-<fingerprint12>       (repro.runtime.cache, exact results)

The fingerprint hashes the analytic package's own source *plus* the
exact engine's :data:`~repro.runtime.cache.SCHEMA_TAG`: changing the
model, the planner, or anything that changes exact results orphans every
analytic record — an estimate calibrated against a dead engine version
is itself dead. Records additionally carry (and :meth:`AnalyticStore.get`
verifies) the full tag, so even a record copied across directories can
never satisfy a lookup from the wrong tier. The exact cache's own tag
regex matches only ``engine-v*`` directories, and this store's matches
only ``analytic-v*``; ``python -m repro.runtime list|prune`` scans both
through the same :func:`~repro.runtime.cache.scan_tag_dirs`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

from ..core.results import SimulationResult
from ..runtime.atomicio import atomic_write_json
from ..runtime.cache import SCHEMA_TAG as ENGINE_SCHEMA_TAG
from ..runtime.cache import CacheTagInfo, prune_tag_dirs, scan_tag_dirs

#: Bump on record format changes; model/engine changes are fingerprinted.
_SCHEMA_MAJOR = "analytic-v1"


def _source_fingerprint() -> str:
    """Hash the analytic package source and the exact engine's tag."""
    pkg_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(ENGINE_SCHEMA_TAG.encode())
    for path in sorted(pkg_root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


#: Versions every analytic record; never equal to an engine tag.
ANALYTIC_SCHEMA_TAG = f"{_SCHEMA_MAJOR}-{_source_fingerprint()}"

#: Digest prefix length in filenames (full digest verified on read).
_NAME_DIGEST_CHARS = 16

#: Directory shape this store owns; disjoint from the engine cache's
#: ``engine-v*`` shape, so each tier's scan/prune can never touch the
#: other's records (or anything else living beside the cache).
_TAG_DIR_RE = re.compile(r"^analytic-v\d+-[0-9a-f]{12}$")


class AnalyticStore:
    """Directory-backed store of model-synthesized cell records.

    The API mirrors :class:`~repro.runtime.cache.ResultCache` (same key
    triple, same hit/miss/store counters) so the runtime can layer the
    two tiers symmetrically — but a record round-tripped through one can
    never be served by the other: disjoint tag directories, and the tag
    inside each record is verified on read.
    """

    def __init__(self, cache_dir: str | os.PathLike[str]):
        self.root = Path(cache_dir) / ANALYTIC_SCHEMA_TAG
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, workload: str, scale_tok: str, digest: str) -> Path:
        name = f"s{scale_tok}__{digest[:_NAME_DIGEST_CHARS]}.json"
        return self.root / workload / name

    def get(
        self, workload: str, scale_tok: str, digest: str
    ) -> SimulationResult | None:
        """The stored analytic result, or ``None`` on miss/corruption."""
        path = self._path(workload, scale_tok, digest)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            record = None
        if not isinstance(record, dict):
            record = None
        if record is None:
            self.misses += 1
            return None
        if (
            record.get("schema") != ANALYTIC_SCHEMA_TAG
            or record.get("config_digest") != digest
            or record.get("workload") != workload
            or record.get("scale") != scale_tok
            or not isinstance(record.get("raw"), dict)
        ):
            self.misses += 1
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
        """Atomically persist one analytic record."""
        path = self._path(workload, scale_tok, digest)
        record = {
            "schema": ANALYTIC_SCHEMA_TAG,
            "workload": workload,
            "scale": scale_tok,
            "config_digest": digest,
            "mechanism": result.mechanism,
            "raw": result.raw,
        }
        try:
            atomic_write_json(path, record)
        except OSError:
            return  # same degrade-to-no-caching contract as the exact cache
        self.stores += 1


def scan_analytic(cache_dir: str | os.PathLike[str]) -> list[CacheTagInfo]:
    """Per-analytic-tag record counts and sizes under ``cache_dir``."""
    return scan_tag_dirs(cache_dir, _TAG_DIR_RE, ANALYTIC_SCHEMA_TAG)


def prune_analytic(
    cache_dir: str | os.PathLike[str],
    schema_tag: str | None = None,
    dry_run: bool = False,
) -> list[CacheTagInfo]:
    """Delete stale analytic-tag directories (same contract as the cache).

    Without ``schema_tag``, every analytic tag except the current one is
    removed; with it, exactly that tag. Only directories matching the
    analytic tag shape are ever considered, so this can never delete
    exact-engine records however the two tiers share a cache directory.
    """
    return prune_tag_dirs(cache_dir, scan_analytic(cache_dir), schema_tag, dry_run)
