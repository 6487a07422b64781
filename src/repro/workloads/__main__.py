"""Workload-layer CLI: profile inspection and trace-store lifecycle.

Usage::

    python -m repro.workloads list        [--set paper|extended|all]
    python -m repro.workloads show        <profile>
    python -m repro.workloads summarize   <profile> [--scale S] [--length N]
    python -m repro.workloads store-list  [--cache-dir DIR]
    python -m repro.workloads store-prune [--cache-dir DIR] [--schema-tag TAG]
                                          [--dry-run]

``list`` tabulates a profile set (default: the ``REPRO_WORKLOAD_SET``
selection); ``show`` dumps every parameter of one profile plus its content
digest; ``summarize`` builds the workload and prints its
:class:`~repro.workloads.trace.TraceSummary` calibration statistics — the
numbers the golden summary fixtures pin.

``store-list``/``store-prune`` mirror the ``python -m repro.runtime``
result-cache lifecycle for the persistent workload store: schema-tag
directories with record counts and sizes, stale tags pruned. The cache
directory comes from ``--cache-dir`` or ``REPRO_TRACE_STORE``/
``REPRO_CACHE_DIR`` — the same resolution :func:`load_workload` uses.
A missing directory, an unknown profile or a bad option value prints
one line and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..errors import ConfigError
from .profiles import PROFILE_SETS, get_profile, workload_set
from .tracestore import (
    TRACE_SCHEMA_TAG,
    profile_digest,
    prune_trace_store,
    scan_trace_store,
)
from .workload import trace_store_dir


def _fmt_size(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


def _resolve_cache_dir(arg: str | None) -> str:
    # Same resolution load_workload uses, so the CLI always inspects the
    # directory builds actually go to.
    cache_dir = arg or trace_store_dir()
    if not cache_dir:
        raise ConfigError(
            "no store directory: pass --cache-dir or set "
            "REPRO_TRACE_STORE/REPRO_CACHE_DIR"
        )
    return cache_dir


# ------------------------------------------------------------------ profiles


def _cmd_list(args: argparse.Namespace) -> int:
    profiles = workload_set(args.set)
    print(f"{'name':<14s} {'kb':>5s} {'layers':>6s} {'txn':>4s} "
          f"{'ind_call':>8s} {'ind_jump':>8s} {'avg_bb':>6s}  description")
    for p in profiles:
        print(
            f"{p.name:<14s} {p.code_kb:>5d} {p.layers:>6d} "
            f"{p.n_transaction_types:>4d} {p.indirect_call_frac:>8.2f} "
            f"{p.indirect_jump_frac:>8.2f} {p.avg_bb_instrs:>6.1f}  "
            f"{p.description}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    print(f"profile {profile.name} (digest {profile_digest(profile)[:16]})")
    for field in dataclasses.fields(profile):
        print(f"  {field.name:<22s} = {getattr(profile, field.name)!r}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    # Import here: summarize needs the full facade, the other commands don't.
    from .workload import load_workload

    profile = get_profile(args.profile)
    workload = load_workload(profile, n_instrs=args.length, scale=args.scale)
    s = workload.trace.summary()
    print(
        f"workload {workload.name} (scale {args.scale}, "
        f"{workload.trace.n_instrs} instrs)"
    )
    for name in (
        "n_records",
        "n_instrs",
        "avg_bb_instrs",
        "taken_rate",
        "cond_frac",
        "cond_taken_rate",
        "uncond_frac",
        "unique_basic_blocks",
        "unique_cache_blocks",
        "footprint_kb",
    ):
        value = getattr(s, name)
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:<22s} = {shown}")
    return 0


# ----------------------------------------------------------------- the store


def _cmd_store_list(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args.cache_dir)
    infos = scan_trace_store(cache_dir)
    print(f"trace store at {cache_dir} (current tag: {TRACE_SCHEMA_TAG})")
    if not infos:
        print("  empty")
        return 0
    stale_records = 0
    for info in infos:
        marker = "current" if info.current else "stale"
        print(
            f"  {info.tag:<32s} {info.records:6d} workloads  "
            f"{_fmt_size(info.size_bytes):>10s}  [{marker}]"
        )
        if not info.current:
            stale_records += info.records
    if stale_records:
        print(
            f"  {stale_records} stale workloads reclaimable via "
            f"`python -m repro.workloads store-prune`"
        )
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    cache_dir = _resolve_cache_dir(args.cache_dir)
    targets = prune_trace_store(cache_dir, schema_tag=args.schema_tag, dry_run=True)
    if not targets:
        target = args.schema_tag or "stale tags"
        print(f"nothing to prune ({target}) in {cache_dir}")
        return 0
    if args.dry_run:
        removed = targets
    else:
        removed = prune_trace_store(cache_dir, schema_tag=args.schema_tag)
    verb = "would remove" if args.dry_run else "removed"
    for info in removed:
        print(
            f"{verb} {info.tag}: {info.records} workloads, "
            f"{_fmt_size(info.size_bytes)}"
        )
    failed = {t.tag for t in targets} - {r.tag for r in removed}
    for tag in sorted(failed):
        print(f"failed to remove {tag} (permissions?)", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="inspect workload profiles and the persistent trace store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="tabulate a workload profile set")
    p_list.add_argument(
        "--set",
        choices=sorted(PROFILE_SETS),
        help="profile set (default: REPRO_WORKLOAD_SET or 'paper')",
    )
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="dump every parameter of one profile")
    p_show.add_argument("profile")
    p_show.set_defaults(func=_cmd_show)

    p_sum = sub.add_parser(
        "summarize", help="build a workload and print its trace calibration stats"
    )
    p_sum.add_argument("profile")
    p_sum.add_argument("--scale", type=float, default=1.0)
    p_sum.add_argument("--length", type=int, default=None, help="trace instructions")
    p_sum.set_defaults(func=_cmd_summarize)

    p_slist = sub.add_parser("store-list", help="show trace-store tags and sizes")
    p_slist.add_argument("--cache-dir", help="store directory (or env)")
    p_slist.set_defaults(func=_cmd_store_list)

    p_sprune = sub.add_parser("store-prune", help="delete stale trace-store tags")
    p_sprune.add_argument("--cache-dir", help="store directory (or env)")
    p_sprune.add_argument(
        "--schema-tag",
        help="prune exactly this tag instead of every non-current tag",
    )
    p_sprune.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    p_sprune.set_defaults(func=_cmd_store_prune)

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
