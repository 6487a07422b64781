"""Workload-layer CLI: profile inspection.

Usage::

    python -m repro.workloads list        [--set paper|extended|all]
    python -m repro.workloads show        <profile>
    python -m repro.workloads summarize   <profile> [--scale S] [--length N]

``list`` tabulates a profile set (default: the ``REPRO_WORKLOAD_SET``
selection); ``show`` dumps every parameter of one profile plus its content
digest; ``summarize`` builds the workload and prints its
:class:`~repro.workloads.trace.TraceSummary` calibration statistics — the
numbers the golden summary fixtures pin. An unknown profile or a bad
option value prints one line and exits 2.

The persistent workload store's ``trace-v*`` tags are listed and pruned
with every other store's by ``python -m repro.runtime list|prune``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..errors import ConfigError
from .profiles import PROFILE_SETS, get_profile, workload_set
from .tracestore import profile_digest


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="inspect workload profiles",
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

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
