#!/usr/bin/env python3
"""Report cold-vs-warm workload build times through the trace store.

For every profile in the chosen set, measure:

* **cold** — a full in-process build (CFG builder + streaming trace
  walker), which is what every pool worker paid per workload before the
  persistent store existed;
* **warm** — the same ``load_workload`` call against a populated store
  (the in-process memo is cleared in between, so the hit really comes
  off disk).

The cold pass populates the store, so running this against the cache
directory a sweep is about to use doubles as a warm-up. CI runs it after
the experiment smoke runs and appends the table to the step summary next
to the result-cache hit counts.

Each row also shows the record's size on disk, the live bytes per basic
block that the loaded CFG keeps resident and the live bytes per record
of the loaded trace (``tracemalloc``, a separate uncounted load after
the timed passes), and each pass prints the store's hit/miss/corrupt
counts. The exit status is 1 when the warm loads were not faster in
total, when any warm load missed or found a corrupt record (a stored
build that cannot be read back), when a loaded CFG keeps more than
:data:`MAX_CFG_BYTES_PER_BLOCK` per block, or when a loaded trace keeps
more than :data:`MAX_TRACE_BYTES_PER_RECORD` per record.

Usage::

    python scripts/trace_store_timing.py --cache-dir DIR
        [--set paper|extended|all] [--scale 0.25]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.workloads import (  # noqa: E402  (path bootstrap above)
    TraceStore,
    clear_workload_cache,
    configure_trace_store,
    get_profile,
    get_trace_store,
    load_workload,
    workload_set,
)

#: Live bytes per basic block a loaded CFG may keep: the most any profile
#: keeps at quick scale (mlserve, 84.8 B; its long blocks widen the pc
#: index) plus 15%. ``tests/test_cfg_builder.py::MAX_BYTES_PER_BLOCK``
#: bounds a fresh oracle build the same way.
MAX_CFG_BYTES_PER_BLOCK = 98

#: Live bytes per record a loaded trace may keep: 9 B of columns (a
#: 4-byte start, a 2-byte size and three 1-byte fields), with the same
#: bound as ``tests/test_cfg_builder.py::MAX_TRACE_BYTES_PER_RECORD``.
MAX_TRACE_BYTES_PER_RECORD = 10


def timed_load(name: str, scale: float) -> float:
    """Seconds for one ``load_workload`` with the in-process memo cleared."""
    clear_workload_cache()
    t0 = time.perf_counter()
    load_workload(name, scale=scale)
    return time.perf_counter() - t0


def live_bytes(cache_dir: str, name: str, scale: float) -> tuple[float, float]:
    """Live bytes per block of one CFG and per record of its trace, as read
    from the store."""
    store = TraceStore(cache_dir)  # its own counters: not a timed lookup
    profile = get_profile(name).scaled(scale)
    gc.collect()
    tracemalloc.start()
    try:
        built = store.get(profile, profile.default_trace_instrs)
        if built is None:
            return float("nan"), float("nan")
        cfg, trace = built
        n_records = len(trace)
        del built
        gc.collect()
        both, _ = tracemalloc.get_traced_memory()
        del trace
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return live / cfg.n_blocks, (both - live) / n_records


def lookups(store: TraceStore) -> tuple[int, int, int]:
    return store.hits, store.misses, store.corrupt


def describe(before: tuple[int, int, int], after: tuple[int, int, int]) -> str:
    hits, misses, corrupt = (a - b for a, b in zip(after, before))
    return f"{hits} hits, {misses} misses, {corrupt} corrupt"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True, help="trace store directory")
    parser.add_argument("--set", default="all", help="profile set (default: all)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale (default: quick, 0.25)")
    args = parser.parse_args(argv)

    names = [profile.name for profile in workload_set(args.set)]

    # First pass: load with the store attached but empty (or stale), so the
    # records land on disk for the warm pass and for any following sweep.
    configure_trace_store(args.cache_dir)
    store = get_trace_store()
    start = lookups(store)
    first: list[float] = []
    first_hit: list[bool] = []
    for name in names:
        hits = store.hits
        first.append(timed_load(name, args.scale))
        first_hit.append(store.hits > hits)
    after_first = lookups(store)

    warm: list[float] = []
    record_bytes: list[int] = []
    for name in names:
        hit_bytes = store.hit_bytes
        warm.append(timed_load(name, args.scale))
        record_bytes.append(store.hit_bytes - hit_bytes)
    after_warm = lookups(store)

    # A first load that hit the store was not a cold build; rebuild those
    # without the store to report an honest cold time.
    configure_trace_store(None)
    cold = [
        timed_load(name, args.scale) if was_hit else seconds
        for name, seconds, was_hit in zip(names, first, first_hit)
    ]
    per_block, per_record = zip(
        *(live_bytes(args.cache_dir, name, args.scale) for name in names)
    )

    print(f"trace store at {args.cache_dir} (scale {args.scale}, set {args.set})")
    print(f"{'workload':<14s} {'cold build':>12s} {'warm load':>12s} {'speedup':>8s} "
          f"{'record':>10s} {'cfg live':>11s} {'trace live':>12s}")
    for name, cold_s, warm_s, size, live, rec in zip(
        names, cold, warm, record_bytes, per_block, per_record
    ):
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(f"{name:<14s} {cold_s * 1e3:>10.1f}ms {warm_s * 1e3:>10.1f}ms "
              f"{speedup:>7.1f}x {size / 1024:>8.1f}KB {live:>7.1f}B/bb "
              f"{rec:>7.2f}B/rec")
    total_cold, total_warm = sum(cold), sum(warm)
    speedup = total_cold / total_warm if total_warm > 0 else float("inf")
    print(f"{'total':<14s} {total_cold * 1e3:>10.1f}ms {total_warm * 1e3:>10.1f}ms "
          f"{speedup:>7.1f}x {sum(record_bytes) / 1024:>8.1f}KB")
    print(f"first pass: {describe(start, after_first)}")
    print(f"warm pass: {describe(after_first, after_warm)}")
    worst = max(per_block)
    print(f"cfg live bytes: max {worst:.1f} B per block "
          f"(bound {MAX_CFG_BYTES_PER_BLOCK})")
    worst_record = max(per_record)
    print(f"trace live bytes: max {worst_record:.2f} B per record "
          f"(bound {MAX_TRACE_BYTES_PER_RECORD})")
    status = 0
    if total_warm >= total_cold:
        print("WARNING: warm loads were not faster than cold builds", file=sys.stderr)
        status = 1
    if after_warm[0] - after_first[0] != len(names):
        print("ERROR: a warm load missed or found a corrupt record", file=sys.stderr)
        status = 1
    if not worst <= MAX_CFG_BYTES_PER_BLOCK:
        print("ERROR: a loaded CFG keeps more live bytes per block than the bound",
              file=sys.stderr)
        status = 1
    if not worst_record <= MAX_TRACE_BYTES_PER_RECORD:
        print("ERROR: a loaded trace keeps more live bytes per record than the bound",
              file=sys.stderr)
        status = 1
    return status

if __name__ == "__main__":
    sys.exit(main())
