"""The lifecycle of every schema-tagged store: fingerprint, scan, prune.

Three stores keep their records under tag directories inside one cache
directory::

    <cache_dir>/
      engine-v3-<fp12>/     exact results    (repro.runtime.cache.ResultCache)
      analytic-v2-<fp12>/   analytic estimates (a ResultCache under its own tag)
      trace-v4-<fp12>/      built workloads  (repro.workloads.tracestore)

Each tag is a hand-bumped format major plus :func:`source_fingerprint`
of the sources that can change the store's records, so a semantic edit
orphans old records with no version bump to remember. Each store keeps
what defines its format — the major, the tag-directory regex, the record
path and writer — where ``reprolint`` RPL004 fingerprints it. What the
three share lives here, once: the fingerprint, the tier of a directory
name (:func:`tag_tier`), the per-tag scan (:func:`scan_tags`), the prune
(:func:`prune_tags`) and the size formatter. ``python -m repro.runtime
list|prune`` and the ``status`` dashboard are built on them.

Only stdlib is imported at module load: :mod:`repro.workloads.tracestore`
imports this module, and :mod:`repro.runtime` imports the workloads
package, so the stores' tags and regexes are read on first use
(:func:`_tiers`). This file is outside every store's fingerprint, like
``envopts.py``: an edit to lifecycle code never orphans a record.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import shutil
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

#: The ``repro`` package directory whose sources are fingerprinted.
PKG_ROOT = Path(__file__).resolve().parent


def source_fingerprint(
    files: Iterable[Path], salt: str = "", root: Path = PKG_ROOT
) -> str:
    """12 hex digits of SHA-256 over ``salt`` and each file's bytes.

    Files are hashed in sorted order, each preceded by its path relative
    to ``root``, so a renamed or moved file changes the fingerprint too.
    ``root`` only matters for a copy of the package (the tag-scope tests).
    """
    digest = hashlib.sha256(salt.encode())
    for path in sorted(files):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


@functools.cache
def _tiers() -> tuple[tuple[str, re.Pattern[str], str, str], ...]:
    """``(tier, tag-directory regex, current tag, record suffix)`` per store."""
    from .runtime import cache
    from .workloads import tracestore

    return (
        ("exact", cache._TAG_DIR_RE, cache.SCHEMA_TAG, ".json"),
        ("analytic", cache._ANALYTIC_TAG_DIR_RE, cache.ANALYTIC_SCHEMA_TAG, ".json"),
        ("trace", tracestore._TAG_DIR_RE, tracestore.TRACE_SCHEMA_TAG, ".wkld"),
    )


def _store_of(name: str) -> tuple[str, re.Pattern[str], str, str] | None:
    """The :func:`_tiers` entry whose regex matches ``name``, if any."""
    return next((store for store in _tiers() if store[1].match(name)), None)


def tag_tier(name: str) -> str | None:
    """``"exact"``, ``"analytic"`` or ``"trace"`` for a tag directory name.

    ``None`` for any other name: only a name some store could have
    written is ever scanned or deleted, so a cache directory shared with
    other data (or a mis-pointed ``--cache-dir``) is safe.
    """
    store = _store_of(name)
    return None if store is None else store[0]


@dataclass(frozen=True)
class TagInfo:
    """Aggregate of one schema-tag directory inside a cache dir."""

    tag: str
    #: Which store wrote it: ``exact``, ``analytic`` or ``trace``.
    tier: str
    #: Record files (``*.json``, or ``*.wkld`` for the trace store).
    records: int
    #: Bytes of every regular file under this tag — what ``prune`` frees.
    size_bytes: int
    #: True when the tag is its store's tag in the running code.
    current: bool


def scan_tags(cache_dir: str | os.PathLike[str]) -> list[TagInfo]:
    """Record counts and sizes of every store's tag directories.

    Tags sort current-first, then by name. A missing directory holds no
    tags. ``size_bytes`` counts every regular file, records or not, so a
    tag holding only leftovers (a legacy ``shard.jsonl``, a temp file)
    still shows the space ``prune`` reclaims.
    """
    root = Path(cache_dir)
    if not root.is_dir():
        return []
    infos: list[TagInfo] = []
    for tag_dir in root.iterdir():
        store = _store_of(tag_dir.name)
        if store is None or not tag_dir.is_dir():
            continue
        tier, _, current, suffix = store
        records = 0
        size = 0
        for path in tag_dir.rglob("*"):
            if not path.is_file():
                continue
            records += path.suffix == suffix
            try:
                size += path.stat().st_size
            except OSError:
                pass
        infos.append(
            TagInfo(tag_dir.name, tier, records, size, tag_dir.name == current)
        )
    infos.sort(key=lambda i: (not i.current, i.tag))
    return infos


def prune_tags(
    cache_dir: str | os.PathLike[str],
    schema_tag: str | None = None,
    dry_run: bool = False,
) -> list[TagInfo]:
    """Delete stale tag directories; returns what was (or would be) removed.

    Without ``schema_tag`` every tag but the running code's current ones
    (one per store) is removed. With ``schema_tag`` only that tag is
    removed, a current one included, to force cold runs or cold builds.
    ``dry_run`` only reports. A tag whose directory survives the deletion
    attempt (a read-only mount, say) is not reported as removed, so
    callers never claim space they did not reclaim.
    """
    root = Path(cache_dir)
    removed: list[TagInfo] = []
    for info in scan_tags(root):
        keep = info.current if schema_tag is None else info.tag != schema_tag
        if keep:
            continue
        if not dry_run:
            shutil.rmtree(root / info.tag, ignore_errors=True)
            if (root / info.tag).exists():
                continue
        removed.append(info)
    return removed


def fmt_size(n: float) -> str:
    """``n`` bytes for humans: ``512 B``, ``1.5 KiB`` … ``2.0 GiB``."""
    for unit in ("B", "KiB", "MiB"):
        if n < 1024:
            return f"{n:.0f} {unit}" if unit == "B" else f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"
