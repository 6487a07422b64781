"""Resumable sweep manifests: the resolved grid, written before it runs.

An interrupted dense sweep (a killed coordinator, a lost machine, a CI
timeout) used to be re-planned from scratch. ``sweeps run`` now writes a
**manifest** under the cache directory before executing anything::

    <cache-dir>/manifests/<sweep>__<scale>__<set>__<digest12>.json

The manifest pins everything needed to finish the run later without
re-deriving it: the sweep/scale/workload-set names, the engine schema tag
in force, a digest of the resolved cell list, and one **cell** per unique
job — workload, workload scale, scale token, full config digest, and the
canonicalized config itself (the same self-contained form broker job
specs travel as, so a cell can be rebuilt into a
:class:`~repro.runtime.SimJob` by any process).

``sweeps run --resume <manifest>`` then diffs the manifest against the
result cache and submits **only the missing cells**. Because every
cell is content-addressed, the merged table of a resumed run is
bit-identical to an uninterrupted one.

Two guards keep resume sound:

* the **spec digest** is recomputed from the current sweep registry at
  resume time; if the sweep definition, scale, or workload set resolves
  to a different cell list, resume refuses rather than silently running
  a different grid;
* each rebuilt config's digest is verified against the cell's recorded
  digest (the broker's own drift check), so a resume under changed config
  code cannot produce wrongly-keyed results.

A manifest written under an older engine schema still loads — its cells
simply all miss the (new-tag) cache and the full grid re-runs, which is
exactly what the schema change demands.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ...config import SimConfig
from ...envopts import resolve
from ...errors import ConfigError
from ...runtime import SimJob, canonicalize, config_digest
from ...runtime.atomicio import CorruptRecord, atomic_write_json, read_json
from ...runtime.broker import config_from_canonical
from ...runtime.cache import SCHEMA_TAG, ResultCache
from ..common import get_scale

if TYPE_CHECKING:  # pragma: no cover - cycle guard (__init__ is our parent)
    from . import SweepSpec

#: Manifest record format version. v2 added the ``fidelity`` key: a
#: resumed sweep must finish at the fidelity it started at, or its merged
#: table would silently mix tiers. v3: the record carries a ``crc32``,
#: and a damaged manifest is refused by name.
MANIFEST_SCHEMA = "sweep-manifest-v3"


@dataclass(frozen=True)
class ManifestCell:
    """One unique job of the resolved grid (baselines included)."""

    workload: str
    workload_scale: float
    scale_tok: str
    digest: str
    #: Canonicalized config tree (rebuildable via ``config_from_canonical``).
    config: dict

    def job(self) -> SimJob:
        """Rebuild the cell's job, verifying the recorded config digest."""
        config = config_from_canonical(self.config)
        if not isinstance(config, SimConfig):
            raise ConfigError(
                f"manifest cell for {self.workload!r} does not describe a SimConfig"
            )
        if config_digest(config) != self.digest:
            raise ConfigError(
                f"manifest cell digest mismatch for {self.workload!r}: the "
                f"manifest says {self.digest[:16]} but this code computes "
                f"{config_digest(config)[:16]} — the config schema changed "
                f"since the manifest was written; re-run without --resume"
            )
        return SimJob(self.workload, config, self.workload_scale)


@dataclass
class SweepManifest:
    """A written (or loaded) manifest; see module docstring."""

    sweep: str
    scale: str
    workload_set: str | None
    engine_schema: str
    spec_digest: str
    cells: list[ManifestCell]
    created_at: float
    #: Fidelity tier the run was started at (``--resume`` re-applies it).
    fidelity: str = "exact"
    path: Path | None = None


def resolve_cells(
    spec: SweepSpec, scale_name: str | None, workload_set: str | None
) -> list[ManifestCell]:
    """The deduplicated cell list of a sweep at a scale, in grid order."""
    scale = get_scale(scale_name)
    cells: list[ManifestCell] = []
    seen: set[tuple[str, str, str]] = set()
    for job in spec.jobs(scale, workload_set):
        key = job.key
        if key in seen:
            continue  # shared baselines appear once per unique config
        seen.add(key)
        cells.append(
            ManifestCell(
                workload=key[0],
                workload_scale=job.workload_scale,
                scale_tok=key[1],
                digest=key[2],
                config=canonicalize(job.config),
            )
        )
    return cells


def _keys_digest(keys: Iterable[tuple[str, str, str]]) -> str:
    """Order-independent digest of a set of (workload, scale, digest) keys."""
    payload = "\n".join(sorted(f"{w}|{s}|{d}" for w, s, d in set(keys)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cells_digest(cells: list[ManifestCell]) -> str:
    """Order-independent digest of a resolved cell list."""
    return _keys_digest((c.workload, c.scale_tok, c.digest) for c in cells)


def manifest_path(cache_dir: str | os.PathLike, manifest: SweepManifest) -> Path:
    set_name = manifest.workload_set or "default"
    name = (
        f"{manifest.sweep}__{manifest.scale}__{set_name}"
        f"__{manifest.spec_digest[:12]}.json"
    )
    return Path(cache_dir) / "manifests" / name


def effective_workload_set(spec: SweepSpec, workload_set: str | None) -> str:
    """The concrete set name a grid resolution will use, env included.

    Mirrors the precedence of :func:`repro.workloads.profiles.workload_set`
    (argument > spec default > ``REPRO_WORKLOAD_SET`` > ``paper``) so the
    manifest freezes the *resolved* name — a resume in a shell without the
    variable must re-run the same grid, not silently a different one.
    """
    chosen: str = resolve("REPRO_WORKLOAD_SET", workload_set or spec.workload_set)
    return chosen


def write_manifest(
    cache_dir: str | os.PathLike,
    spec: SweepSpec,
    scale_name: str | None = None,
    workload_set: str | None = None,
    fidelity: str = "exact",
) -> SweepManifest:
    """Resolve the grid and atomically persist its manifest.

    Re-running the same sweep at the same scale/set overwrites the same
    manifest file (the spec digest is part of the name), so there is
    always exactly one live manifest per distinct grid.
    """
    workload_set = effective_workload_set(spec, workload_set)
    cells = resolve_cells(spec, scale_name, workload_set)
    manifest = SweepManifest(
        sweep=spec.name,
        scale=get_scale(scale_name).name,
        workload_set=workload_set,
        engine_schema=SCHEMA_TAG,
        spec_digest=cells_digest(cells),
        cells=cells,
        created_at=time.time(),
        fidelity=fidelity,
    )
    path = manifest_path(cache_dir, manifest)
    record = {
        "schema": MANIFEST_SCHEMA,
        "sweep": manifest.sweep,
        "scale": manifest.scale,
        "workload_set": manifest.workload_set,
        "engine_schema": manifest.engine_schema,
        "spec_digest": manifest.spec_digest,
        "created_at": manifest.created_at,
        "fidelity": manifest.fidelity,
        "cells": [
            {
                "workload": c.workload,
                "workload_scale": c.workload_scale,
                "scale": c.scale_tok,
                "digest": c.digest,
                "config": c.config,
            }
            for c in cells
        ],
    }
    atomic_write_json(path, record)
    manifest.path = path
    return manifest


def load_manifest(path: str | os.PathLike) -> SweepManifest:
    path = Path(path)
    try:
        record = read_json(path)
    except CorruptRecord as exc:
        raise ConfigError(f"not a sweep manifest, or a damaged one ({exc})") from None
    if record is None:
        raise ConfigError(f"cannot read sweep manifest {path}")
    if record.get("schema") != MANIFEST_SCHEMA:
        raise ConfigError(
            f"{path} is not a sweep manifest (expected schema "
            f"{MANIFEST_SCHEMA!r}, got {record.get('schema')!r})"
        )
    try:
        cells = [
            ManifestCell(
                workload=c["workload"],
                workload_scale=float(c["workload_scale"]),
                scale_tok=c["scale"],
                digest=c["digest"],
                config=c["config"],
            )
            for c in record["cells"]
        ]
        manifest = SweepManifest(
            sweep=record["sweep"],
            scale=record["scale"],
            workload_set=record.get("workload_set"),
            engine_schema=record["engine_schema"],
            spec_digest=record["spec_digest"],
            cells=cells,
            created_at=float(record.get("created_at", 0.0)),
            fidelity=record.get("fidelity", "exact"),
            path=path,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed sweep manifest {path}: {exc!r}") from None
    return manifest


def verify_matches_spec(manifest: SweepManifest, spec: SweepSpec) -> None:
    """Refuse to resume a manifest whose grid no longer matches the code.

    The current registry's resolution of (sweep, scale, workload set) must
    produce the same cell list the manifest recorded; otherwise the sweep
    definition, the scale table, or the workload set changed underneath
    the manifest and "finishing" it would run a different grid. Compared
    via job keys directly — no cell materialization — since the digest
    only covers (workload, scale token, config digest).
    """
    scale = get_scale(manifest.scale)
    current = _keys_digest(
        job.key for job in spec.jobs(scale, manifest.workload_set)
    )
    if current != manifest.spec_digest:
        raise ConfigError(
            f"manifest {manifest.path} no longer matches sweep "
            f"{manifest.sweep!r} at scale {manifest.scale!r} (spec digest "
            f"{manifest.spec_digest} vs current {current}): the sweep "
            f"definition or its grid changed; re-run without --resume"
        )


def missing_cells(
    manifest: SweepManifest,
    cache: ResultCache,
    analytic: ResultCache | None = None,
) -> list[SimJob]:
    """The cells with no cached result — the only jobs a resume submits.

    Probes go through :class:`~repro.runtime.cache.ResultCache`, so a
    result is "present" exactly when a run would get a cache hit for
    it. For a manifest written at a non-exact fidelity the
    caller passes the analytic tier's cache too: an estimate satisfies such a
    cell (that run would have synthesized it anyway), while an
    exact-fidelity manifest never consults the analytic tier. Each
    missing cell is rebuilt into a :class:`~repro.runtime.SimJob` with
    its digest verified.
    """

    def present(cell: ManifestCell) -> bool:
        if cache.get(cell.workload, cell.scale_tok, cell.digest) is not None:
            return True
        return (
            analytic is not None
            and manifest.fidelity != "exact"
            and analytic.get(cell.workload, cell.scale_tok, cell.digest)
            is not None
        )

    return [cell.job() for cell in manifest.cells if not present(cell)]
