"""High-level workload facade: profile + built CFG + dynamic trace.

:func:`load_workload` is the main entry point used by the simulator API,
experiments and examples. Three layers are checked in order, mirroring the
result-side :class:`repro.runtime.ExperimentRuntime`:

1. an **in-process memo**, keyed by the frozen profile itself plus the
   trace length. :class:`~repro.workloads.profiles.WorkloadProfile`
   hashes and compares every field, so the key is the profile's content,
   never its name: a caller-constructed profile that shares a name with
   a stock one can never be served the wrong build;
2. an optional **persistent trace store**
   (:class:`~repro.workloads.tracestore.TraceStore`) shared across
   processes and pool workers — a cold full-scale sweep builds each
   workload once on disk instead of once per worker. Its records are
   keyed by the profile's content digest, which is computed only when a
   store is configured; the store module is imported on first use, so a
   process that only simulates never loads it;
3. an actual build: :func:`~repro.workloads.builder.build_cfg` plus the
   streaming trace walker.

The store directory resolves from :func:`configure_trace_store`, else the
``REPRO_TRACE_STORE`` environment variable, else ``REPRO_CACHE_DIR`` (the
same directory the result cache uses — the two subsystems occupy disjoint
schema-tag subdirectories). With none of those set, builds stay in-memory
only, exactly as before.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..envopts import read_env, resolve
from .builder import build_cfg
from .cfg import ControlFlowGraph
from .profiles import WorkloadProfile, get_profile
from .trace import Trace, generate_trace

if TYPE_CHECKING:  # pragma: no cover - imported on first use, see get_trace_store
    from .tracestore import TraceStore


@dataclass(frozen=True)
class Workload:
    """A ready-to-simulate workload."""

    profile: WorkloadProfile
    cfg: ControlFlowGraph
    trace: Trace

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def warmup_instrs(self) -> int:
        """Instructions excluded from measurement at the start of the trace."""
        return int(self.trace.n_instrs * self.profile.warmup_frac)


#: Keys are (profile, trace length): the frozen profile compares every
#: field, so equal keys mean equal content — see module docstring.
_CACHE: dict[tuple[WorkloadProfile, int], Workload] = {}

#: Cap on memoized workloads; builds are deterministic so eviction is safe.
_CACHE_LIMIT = 32


def trace_seed(profile: WorkloadProfile) -> int:
    """The derived walker seed :func:`load_workload` uses for ``profile``."""
    return profile.seed * 7919 + 1


# ---------------------------------------------------------------------------
# Persistent trace-store resolution
# ---------------------------------------------------------------------------

_UNSET = object()

#: Explicit override from :func:`configure_trace_store` (None = disabled).
_STORE_DIR: object = _UNSET

#: One TraceStore instance per directory, so hit/miss/store counters
#: aggregate per process and repeated lookups reuse the resolved root.
_STORES: dict[str, TraceStore] = {}


def configure_trace_store(cache_dir: str | os.PathLike | None) -> None:
    """Pin (or, with ``None``, disable) the persistent trace store.

    Overrides the ``REPRO_TRACE_STORE``/``REPRO_CACHE_DIR`` environment
    resolution for this process; forked pool workers inherit the setting.
    """
    global _STORE_DIR
    _STORE_DIR = None if cache_dir is None else os.fspath(cache_dir)


def reset_trace_store() -> None:
    """Return to environment-variable resolution (tests use this).

    Also drops the per-directory stores, so a store resolved afterwards
    counts its hits, misses and stores from zero.
    """
    global _STORE_DIR
    _STORE_DIR = _UNSET
    _STORES.clear()


def trace_store_dir() -> str | None:
    """The effective store directory (explicit override, else environment).

    ``REPRO_TRACE_STORE`` set to the empty string means *explicitly
    disabled* (no fallback to ``REPRO_CACHE_DIR``) — that is how a parent
    process propagates ``configure_trace_store(None)`` to spawn-started
    pool workers, which would otherwise re-enable the store from
    ``REPRO_CACHE_DIR``.
    """
    if _STORE_DIR is _UNSET:
        env = read_env("REPRO_TRACE_STORE")
        if env is not None:
            return env or None
        cache_dir: str | None = resolve("REPRO_CACHE_DIR")
        return cache_dir
    return _STORE_DIR


def trace_store_env_value() -> str | None:
    """What a parent should export as ``REPRO_TRACE_STORE`` for children.

    The explicitly configured directory, ``""`` for an explicit disable,
    or ``None`` when resolution is environment-driven anyway (children
    inherit the same environment, so there is nothing to export).
    """
    if _STORE_DIR is _UNSET:
        return None
    return _STORE_DIR or ""


def get_trace_store() -> TraceStore | None:
    """The persistent workload store for this process, if configured."""
    cache_dir = trace_store_dir()
    if not cache_dir:
        return None
    store = _STORES.get(cache_dir)
    if store is None:
        from .tracestore import TraceStore

        store = _STORES[cache_dir] = TraceStore(cache_dir)
    return store


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


def load_workload(
    profile: WorkloadProfile | str,
    n_instrs: int | None = None,
    scale: float = 1.0,
) -> Workload:
    """Build (or fetch from cache) the workload for ``profile``.

    ``scale`` shrinks footprint and trace length together — used by tests
    and quick benchmark modes. ``n_instrs`` overrides the (scaled) default
    trace length. Scale needs no separate key component: scaling rewrites
    profile fields, so a scaled profile is a different key.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if scale != 1.0:
        profile = profile.scaled(scale)
    length = n_instrs if n_instrs is not None else profile.default_trace_instrs

    key = (profile, length)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    store = get_trace_store()
    built = store.get(profile, length) if store is not None else None
    if built is not None:
        cfg, trace = built
    else:
        cfg = build_cfg(profile)
        trace = generate_trace(cfg, length, seed=trace_seed(profile))
        if store is not None:
            store.put(profile, length, cfg, trace)

    workload = Workload(profile=profile, cfg=cfg, trace=trace)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = workload
    return workload


def clear_workload_cache() -> None:
    """Drop all memoized workloads (tests use this to bound memory)."""
    _CACHE.clear()
