"""CLI for the declarative sweep grids.

Usage::

    python -m repro.experiments.sweeps list [--scale S]
    python -m repro.experiments.sweeps show <name> [--scale S] [--fidelity F]
    python -m repro.experiments.sweeps run  <name> [--scale S]
        [--workload-set W] [--jobs N] [--cache-dir D] [--backend B]
        [--fidelity F] [--profile-stages] [--no-table] [--serve]
    python -m repro.experiments.sweeps run --resume <manifest>
        [--jobs N] [--cache-dir D] [--backend B] [--profile-stages]
        [--no-table]

``run`` executes the named grid through the shared experiment runtime —
``--jobs``/``--cache-dir``/``--backend`` configure it exactly like
``python -m repro.experiments`` (explicit flags beat ``REPRO_*``), so a
sweep fans out over a process pool or the distributed broker the same
way the figure modules do. The closing summary line reports unique jobs,
simulations actually executed, disk hits, wall time and the backend's
telemetry (for the broker: per-worker job counts, queue waits, retries).

``--profile-stages`` prints per-stage attribution for whatever executed:
how many cycles each stage's gate opened and what those activations cost
(:mod:`repro.core.profiling`); it forces the serial backend because the
collector is in-process.

With a cache directory configured, ``run`` first writes a **manifest**
(the resolved cell list — see :mod:`repro.experiments.sweeps.manifest`)
under ``<cache-dir>/manifests/`` and prints its path. If the run is
interrupted, ``run --resume <manifest>`` diffs that manifest against the
result cache and submits *only* the missing cells; the finished table is bit-identical to an uninterrupted
run. Scale and workload set come from the manifest — passing ``--scale``
or ``--workload-set`` alongside ``--resume`` is an error, and a manifest
whose grid no longer matches the current sweep definition is refused.

``--fidelity`` (or ``REPRO_FIDELITY``) selects the result tier
(:mod:`repro.analytic`): ``exact`` runs every cell on the engine,
``analytic`` calibrates a per-series model from a small anchor grid and
synthesizes the rest, ``hybrid`` additionally re-dispatches
high-uncertainty and extrapolating cells to the exact engine. The
fidelity is frozen into the manifest, and ``--resume`` re-applies it —
the flag is rejected alongside ``--resume`` for the same reason as
``--scale``. ``show --fidelity hybrid`` previews the exact-vs-analytic
cell split without running anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ...core import profiling
from ...envopts import require_cache_dir, resolve
from ...errors import ConfigError
from ...runtime import backend_summary, configure_runtime, get_runtime
from ...runtime.cache import SCHEMA_TAG
from ..common import get_scale
from . import SWEEPS, get_sweep
from .manifest import load_manifest, missing_cells, verify_matches_spec, write_manifest


def _disk_counts(runtime) -> tuple[int, int]:
    """Result-cache (hits, corrupt records) of ``runtime``, 0s without a cache."""
    disk = runtime.disk
    return (disk.hits, disk.corrupt) if disk is not None else (0, 0)


def _cmd_list(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    print(f"named sweeps (job counts at scale={scale.name}):")
    for spec in SWEEPS.values():
        jobs = spec.job_count(scale)
        print(f"  {spec.name:<22s} {jobs:4d} jobs  {spec.title}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = get_sweep(args.name)
    scale = get_scale(args.scale)
    print(f"{spec.name} — {spec.title}")
    print(f"  {spec.description}")
    print(f"  grid:         {spec.summary()}")
    print(f"  workload set: {spec.workload_set or 'default (REPRO_WORKLOAD_SET)'}")
    print(f"  workloads:    {', '.join(spec.workloads())}")
    print(f"  baselines:    {'matched per point' if spec.include_baseline else 'none'}")
    print(f"  jobs at scale={scale.name}: {spec.job_count(scale)}")
    _show_costs(spec, scale, args)
    return 0


def _show_costs(spec, scale, args: argparse.Namespace) -> None:
    """Estimated cost (and, under hybrid, the exact/analytic split)."""
    from ...runtime import SimJob, estimate_job_cost

    jobs: list[SimJob] = []
    seen: set[tuple[str, str, str]] = set()
    for job in spec.jobs(scale, args.workload_set):
        if job.key in seen:
            continue
        seen.add(job.key)
        jobs.append(job)
    by_workload: dict[str, list[int]] = {}
    unknown = 0
    for job in jobs:
        cost = estimate_job_cost(job)
        if cost is None:
            unknown += 1
        else:
            by_workload.setdefault(job.workload, []).append(cost)
    print("  estimated cost (scaled trace instructions):")
    total = 0
    for workload in sorted(by_workload):
        costs = by_workload[workload]
        subtotal = sum(costs)
        total += subtotal
        print(
            f"    {workload:<14s} {len(costs):4d} cells × "
            f"[{min(costs):,} .. {max(costs):,}] per cell = {subtotal:,}"
        )
    if unknown:
        print(f"    ({unknown} cells with unknown workload profile not counted)")
    print(f"    total: {total:,} across {len(jobs)} unique cells")
    if args.fidelity in ("analytic", "hybrid"):
        from ...analytic import DEFAULT_ANCHOR_SPEC, plan_series, plan_summary

        plans, passthrough = plan_series(jobs, DEFAULT_ANCHOR_SPEC)
        exact, estimated = plan_summary(plans, passthrough)
        print(
            f"  fidelity={args.fidelity} split ({DEFAULT_ANCHOR_SPEC} anchors): "
            f"{exact} exact-engine cells (anchors + passthrough), "
            f"{estimated} analytic cells"
            + (
                " (hybrid may re-dispatch high-uncertainty cells exact)"
                if args.fidelity == "hybrid"
                else ""
            )
        )


def _start_profiling(args: argparse.Namespace):
    """``--profile-stages``: install the collector; force serial execution.

    Profiling accumulates in-process — pool and broker workers would keep
    their timings in their own processes — so the serial backend is the
    only one that can produce a complete table.
    """
    if not args.profile_stages:
        return None
    if args.backend not in (None, "serial"):
        print(
            f"note: --profile-stages forces the serial backend "
            f"(--backend {args.backend} ignored)",
            file=sys.stderr,
        )
    args.backend = "serial"
    return profiling.enable()


def _maybe_refresh_warehouse(args: argparse.Namespace) -> None:
    """``--refresh-warehouse`` / ``REPRO_WAREHOUSE_AUTOREFRESH``: fold the
    run's results into the SQLite warehouse while they are fresh.

    Needs a disk cache (there is nothing to consolidate otherwise).
    """
    if not resolve("REPRO_WAREHOUSE_AUTOREFRESH", args.refresh_warehouse):
        return
    runtime = get_runtime()
    if runtime.cache_dir is None:
        print(
            "note: --refresh-warehouse needs a cache directory "
            "(--cache-dir or REPRO_CACHE_DIR); skipped",
            file=sys.stderr,
        )
        return
    from ...warehouse import refresh_warehouse

    stats = refresh_warehouse(runtime.cache_dir)
    print(f"[warehouse: {stats.summary()}]")


def _cmd_serve(args: argparse.Namespace) -> int:
    """``--serve``: hand the run to the supervised service mode.

    The supervisor re-invokes ``sweeps run`` (without ``--serve``) as the
    coordinator subprocess and autoscales broker workers around it — see
    :func:`repro.runtime.supervisor.serve_sweep`. Pass-through flags that
    shape the grid or the records travel to the coordinator; flags that
    contradict service mode (``--resume``'s manifest replay,
    ``--profile-stages``'s forced serial backend, a non-broker
    ``--backend``) are rejected rather than silently ignored.
    """
    from ...runtime.supervisor import serve_sweep

    if args.name is None:
        print("a sweep name is required with --serve", file=sys.stderr)
        return 2
    if args.resume or args.profile_stages:
        print(
            "--serve cannot be combined with --resume or --profile-stages",
            file=sys.stderr,
        )
        return 2
    if args.backend not in (None, "broker"):
        print(
            f"--serve always runs the broker backend "
            f"(--backend {args.backend} conflicts)",
            file=sys.stderr,
        )
        return 2
    cache_dir = require_cache_dir(args.cache_dir)
    extra: list[str] = []
    if args.jobs is not None:
        extra += ["--jobs", str(args.jobs)]
    if args.fidelity:
        extra += ["--fidelity", args.fidelity]
    if args.no_table:
        extra.append("--no-table")
    if args.refresh_warehouse:
        extra.append("--refresh-warehouse")
    return serve_sweep(
        args.name,
        cache_dir,
        scale=args.scale,
        workload_set=args.workload_set,
        coordinator_args=extra,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.serve:
        return _cmd_serve(args)
    if args.resume:
        return _cmd_resume(args)
    if args.name is None:
        print("a sweep name (or --resume MANIFEST) is required", file=sys.stderr)
        return 2
    spec = get_sweep(args.name)
    profiler = _start_profiling(args)
    if any(
        value is not None
        for value in (
            args.jobs,
            args.cache_dir,
            args.backend,
            args.fidelity,
        )
    ):
        configure_runtime(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            backend=args.backend,
            fidelity=args.fidelity,
        )
    runtime = get_runtime()
    if runtime.cache_dir is not None:
        # The resolved grid, persisted before anything executes: an
        # interrupted run finishes with `run --resume <this file>`.
        manifest = write_manifest(
            runtime.cache_dir,
            spec,
            args.scale,
            args.workload_set,
            fidelity=runtime.fidelity,
        )
        unique_jobs = len(manifest.cells)
        print(f"[manifest: {manifest.path} — finish an interrupted run with --resume]")
    else:
        # Count the grid once, up front — recompiling 100s of configs (and
        # their SHA digests) after the run just for the summary is waste.
        unique_jobs = spec.job_count(get_scale(args.scale), args.workload_set)
    started = time.time()
    try:
        result = spec.run(args.scale, args.workload_set)
    finally:
        profiling.disable()
    elapsed = time.time() - started
    if not args.no_table:
        print(result.to_table())
    if profiler is not None:
        print(profiler.table())
    runtime = get_runtime()
    hits, corrupt = _disk_counts(runtime)
    # The exact-fidelity line keeps its historical shape (CI smoke greps
    # it); non-exact runs add the analytic-cell count.
    estimated = (
        f"{runtime.estimated} estimated ({runtime.fidelity}), "
        if runtime.fidelity != "exact"
        else ""
    )
    print(
        f"[sweep {spec.name}: {unique_jobs} "
        f"unique jobs, {runtime.executed} simulated, {estimated}{hits} disk hits, "
        f"{corrupt} corrupt, {elapsed:.1f}s, {backend_summary(runtime)}]"
    )
    _maybe_refresh_warehouse(args)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    if args.name is not None or args.scale or args.workload_set or args.fidelity:
        print(
            "--resume takes the sweep, scale, workload set and fidelity "
            "from the manifest; drop the extra arguments",
            file=sys.stderr,
        )
        return 2
    manifest = load_manifest(args.resume)
    spec = get_sweep(manifest.sweep)
    verify_matches_spec(manifest, spec)
    profiler = _start_profiling(args)
    cache_dir = resolve("REPRO_CACHE_DIR", args.cache_dir)
    if cache_dir is None:
        # The manifest lives inside the cache it belongs to — infer it.
        parent = Path(args.resume).resolve().parent
        if parent.name == "manifests":
            cache_dir = str(parent.parent)
    configure_runtime(
        jobs=args.jobs,
        cache_dir=cache_dir,
        backend=args.backend,
        fidelity=manifest.fidelity,
    )
    runtime = get_runtime()
    if runtime.disk is None:
        print(
            "resume needs the cache directory the manifest belongs to: "
            "pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    if manifest.engine_schema != SCHEMA_TAG:
        print(
            f"note: manifest was written under engine schema "
            f"{manifest.engine_schema} (current: {SCHEMA_TAG}); every cell "
            f"misses the current cache, so the full grid re-runs"
        )
    # Probe through throwaway store instances so the diff's reads do not
    # inflate the runtime's hit/miss telemetry in the summary line below.
    from ...runtime.cache import ANALYTIC_SCHEMA_TAG, ResultCache

    analytic = (
        ResultCache(runtime.cache_dir, ANALYTIC_SCHEMA_TAG)
        if manifest.fidelity != "exact"
        else None
    )
    missing = missing_cells(manifest, ResultCache(runtime.cache_dir), analytic)
    cached = len(manifest.cells) - len(missing)
    print(
        f"[resume {manifest.sweep}: {cached}/{len(manifest.cells)} cells "
        f"already cached, submitting {len(missing)} missing]"
    )
    started = time.time()
    try:
        if missing:
            runtime.run_many(missing)
        result = spec.run(manifest.scale, manifest.workload_set)
    finally:
        profiling.disable()
    elapsed = time.time() - started
    if not args.no_table:
        print(result.to_table())
    if profiler is not None:
        print(profiler.table())
    hits, corrupt = _disk_counts(runtime)
    estimated = (
        f"{runtime.estimated} estimated ({runtime.fidelity}), "
        if runtime.fidelity != "exact"
        else ""
    )
    print(
        f"[sweep {manifest.sweep}: resumed {len(missing)} of "
        f"{len(manifest.cells)} unique jobs, {runtime.executed} simulated, "
        f"{estimated}{hits} disk hits, {corrupt} corrupt, {elapsed:.1f}s, "
        f"{backend_summary(runtime)}]"
    )
    _maybe_refresh_warehouse(args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweeps",
        description="list, inspect and run named declarative sweep grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show every named sweep with job counts")
    p_list.add_argument("--scale", help="scale for job counts (or REPRO_SCALE)")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="describe one sweep's grid")
    p_show.add_argument("name")
    p_show.add_argument("--scale", help="scale for job counts (or REPRO_SCALE)")
    p_show.add_argument(
        "--workload-set", help="paper|extended|all (or REPRO_WORKLOAD_SET)"
    )
    p_show.add_argument(
        "--fidelity",
        help="preview the exact-vs-analytic cell split for analytic|hybrid",
    )
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser("run", help="execute a sweep and print its table")
    p_run.add_argument("name", nargs="?", help="sweep name (omit with --resume)")
    p_run.add_argument(
        "--resume",
        metavar="MANIFEST",
        help="finish an interrupted run: submit only the manifest's missing cells",
    )
    p_run.add_argument("--scale", help="quick|default|full (or REPRO_SCALE)")
    p_run.add_argument("--workload-set", help="paper|extended|all (or REPRO_WORKLOAD_SET)")
    p_run.add_argument("--jobs", type=int, help="process-pool width (or REPRO_JOBS)")
    p_run.add_argument("--cache-dir", help="persistent result cache (or REPRO_CACHE_DIR)")
    p_run.add_argument(
        "--backend",
        help="serial|pool|broker|auto (or REPRO_BACKEND); broker needs --cache-dir",
    )
    p_run.add_argument(
        "--fidelity",
        help="exact|analytic|hybrid result tier (or REPRO_FIDELITY)",
    )
    p_run.add_argument(
        "--profile-stages",
        action="store_true",
        help="print per-stage cycle/time attribution (forces --backend serial)",
    )
    p_run.add_argument(
        "--no-table", action="store_true", help="suppress the per-point table"
    )
    p_run.add_argument(
        "--serve",
        action="store_true",
        help=(
            "run under the supervised service mode: autoscaled broker "
            "workers around a coordinator subprocess (needs a cache dir)"
        ),
    )
    p_run.add_argument(
        "--refresh-warehouse",
        action="store_true",
        default=None,
        help=(
            "consolidate the warehouse after the run "
            "(or REPRO_WAREHOUSE_AUTOREFRESH); needs a cache directory"
        ),
    )
    p_run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
