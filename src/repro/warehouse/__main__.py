"""Warehouse CLI: refresh, inspect and query the result warehouse.

Usage::

    python -m repro.warehouse refresh [--cache-dir DIR]
    python -m repro.warehouse status  [--cache-dir DIR]
    python -m repro.warehouse contour SWEEP [--scale NAME] [--workload-set NAME]
    python -m repro.warehouse sensitivity [SWEEP] [--scale NAME] [...]

``refresh`` rebuilds ``warehouse.sqlite``, beside the schema-tag
directories, from every readable result record (exact and analytic) in
one crash-safe transaction (see ``repro.warehouse.core``). The query
subcommands print Markdown tables straight from that snapshot.

The cache directory comes from ``--cache-dir`` or ``REPRO_CACHE_DIR``
(:func:`repro.envopts.require_cache_dir`, shared with the runtime CLI).
"""

from __future__ import annotations

import argparse
import sys

from ..envopts import require_cache_dir
from ..errors import ConfigError
from .core import connect, db_path, read_status, refresh_warehouse
from .queries import QUERIES


def _cmd_refresh(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    stats = refresh_warehouse(cache_dir)
    print(f"[warehouse: {stats.summary()}]")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    path = db_path(cache_dir)
    if not path.is_file():
        print(f"no warehouse at {path} (run `python -m repro.warehouse refresh`)")
        return 1
    conn = connect(cache_dir)
    try:
        status = read_status(conn)
    finally:
        conn.close()
    print(f"warehouse at {path} (schema {status.schema})")
    for tag, fidelity, count in status.by_tag:
        print(f"  {tag:<48s} {fidelity:<9s} {count:6d} cell(s)")
    print(f"  {status.cells} cell(s)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    if not db_path(cache_dir).is_file():
        print(
            f"no warehouse under {cache_dir} "
            f"(run `python -m repro.warehouse refresh`)",
            file=sys.stderr,
        )
        return 1
    conn = connect(cache_dir)
    try:
        render = QUERIES[args.query]
        print(
            render(conn, args.sweep, args.scale, args.workload_set),
            end="",
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        conn.close()
    return 0


def _add_query_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
    name: str,
    help_text: str,
    sweep_default: str | None,
) -> None:
    """One query subcommand; ``sweep_default=None`` makes the sweep required."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    if sweep_default is None:
        p.add_argument("sweep", help="sweep name (see `sweeps list`)")
    else:
        p.add_argument("sweep", nargs="?", default=sweep_default)
    p.add_argument("--scale", help="experiment scale (or REPRO_SCALE)")
    p.add_argument("--workload-set", help="profile set (default: the sweep's)")
    p.set_defaults(func=_cmd_query, query=name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.warehouse",
        description=(
            "consolidate simulation results into a queryable SQLite "
            "warehouse and run canned queries over it"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_refresh = sub.add_parser(
        "refresh", help="rebuild the warehouse from the stores"
    )
    p_refresh.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_refresh.set_defaults(func=_cmd_refresh)

    p_status = sub.add_parser("status", help="show warehouse snapshot counts")
    p_status.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_status.set_defaults(func=_cmd_status)

    _add_query_parser(
        sub,
        "contour",
        "per-mechanism speedup table over a sweep's knob grid",
        sweep_default=None,
    )
    _add_query_parser(
        sub,
        "sensitivity",
        "per-workload × per-mechanism matrix for an axis-free sweep",
        sweep_default="ablation-matrix",
    )

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
