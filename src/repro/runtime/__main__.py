"""Store lifecycle and distributed-worker CLI.

Usage::

    python -m repro.runtime list    [--cache-dir DIR]
    python -m repro.runtime prune   [--cache-dir DIR] [--schema-tag TAG] [--dry-run]
    python -m repro.runtime worker  [--cache-dir DIR] [--worker-id ID]
                                    [--drain] [--max-idle SEC] [--max-jobs N]
    python -m repro.runtime queue   [--cache-dir DIR]
    python -m repro.runtime status  [--cache-dir DIR] [--manifest FILE]
                                    [--json] [--watch] [--interval SEC]
    python -m repro.runtime serve   SWEEP [--cache-dir DIR] [--scale S]
                                    [--workload-set W] [--max-workers N]

``list`` shows every schema-tag directory of every store in the cache
directory — exact results (``engine-v*``), analytic estimates
(``analytic-v*``) and built workloads (``trace-v*``) — with its tier,
record count and size, marking the tags the running code reads (records
under any other tag are unreachable: a source fingerprint changed since
they were written; see :mod:`repro.tagdirs`). ``prune`` deletes every
stale tag of every store in one call; pass ``--schema-tag`` to delete
one specific tag instead (a current one included, to force cold runs or
cold workload builds).

``worker`` starts a work-stealing broker worker against the queue under
``<cache-dir>/queue/`` (see ``docs/runtime.md``): it claims pending jobs
via atomic rename, executes them, publishes results, and recovers expired
leases left by crashed peers. ``--drain`` exits once the queue has been
empty for ``--max-idle`` seconds (default 10). ``queue`` prints the
per-state job counts of that directory.

``status`` renders the service-mode dashboard (queue depths, per-worker
throughput, live lease ages, cache/trace-store stats, supervisor state,
and per-cell sweep progress with an ETA — see
:mod:`repro.runtime.supervisor`): one shot by default, machine-readable
with ``--json``, repainting atomically every ``--interval`` seconds with
``--watch``. The sweep section follows ``--manifest`` when given, else
the newest manifest under ``<cache-dir>/manifests/``.

``serve`` runs a named sweep end to end under supervision: the sweep
coordinator runs as a subprocess (stealing disabled) while the
supervisor autoscales ``worker`` subprocesses against the backlog, up to
``--max-workers`` — crash restarts with bounded backoff included — and
stops the fleet when the coordinator exits. Results are bit-identical
to hand-started workers.

The cache directory comes from ``--cache-dir`` or the ``REPRO_CACHE_DIR``
environment variable (:func:`repro.envopts.require_cache_dir`). A missing
directory or a bad option value prints one line and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..envopts import require_cache_dir
from ..errors import ConfigError
from ..tagdirs import fmt_size, prune_tags, scan_tags
from .broker import BrokerQueue, run_worker


def _cmd_list(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    infos = scan_tags(cache_dir)
    print(f"stores at {cache_dir}")
    if not infos:
        print("  empty")
        return 0
    stale_records = 0
    for info in infos:
        marker = "current" if info.current else "stale"
        print(
            f"  {info.tier:<8s}  {info.tag:<24s} {info.records:6d} records  "
            f"{fmt_size(info.size_bytes):>10s}  [{marker}]"
        )
        if not info.current:
            stale_records += info.records
    if stale_records:
        print(
            f"  {stale_records} stale records reclaimable via "
            f"`python -m repro.runtime prune`"
        )
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    targets = prune_tags(cache_dir, schema_tag=args.schema_tag, dry_run=True)
    if not targets:
        target = args.schema_tag or "stale tags"
        print(f"nothing to prune ({target}) in {cache_dir}")
        return 0
    if args.dry_run:
        removed = targets
    else:
        removed = prune_tags(cache_dir, schema_tag=args.schema_tag)
    verb = "would remove" if args.dry_run else "removed"
    for info in removed:
        print(
            f"{verb} {info.tag}: {info.records} records, "
            f"{fmt_size(info.size_bytes)}"
        )
    failed = {t.tag for t in targets} - {r.tag for r in removed}
    for tag in sorted(failed):
        print(f"failed to remove {tag} (permissions?)", file=sys.stderr)
    return 1 if failed else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    run_worker(
        cache_dir,
        worker_id=args.worker_id,
        drain=args.drain,
        max_idle=args.max_idle,
        max_jobs=args.max_jobs,
    )
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    cache_dir = require_cache_dir(args.cache_dir)
    queue = BrokerQueue(cache_dir)
    counts = queue.counts()
    print(f"broker queue at {queue.root}")
    for state in ("pending", "claimed", "done", "failed"):
        print(f"  {state:<8s} {counts[state]:6d} job(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .supervisor import build_status, render_status, watch_status

    cache_dir = require_cache_dir(args.cache_dir)
    if args.watch:
        return watch_status(cache_dir, args.manifest, interval=args.interval)
    status = build_status(cache_dir, args.manifest)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(render_status(status))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .supervisor import serve_sweep, supervisor_options

    return serve_sweep(
        args.sweep,
        require_cache_dir(args.cache_dir),
        scale=args.scale,
        workload_set=args.workload_set,
        options=supervisor_options(max_workers=args.max_workers),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description=(
            "inspect and prune the on-disk stores (results, estimates, "
            "workload builds), or run a distributed broker worker"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show every store's tags, records, sizes")
    p_list.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_list.set_defaults(func=_cmd_list)

    p_prune = sub.add_parser("prune", help="delete every store's stale schema tags")
    p_prune.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_prune.add_argument(
        "--schema-tag",
        help="prune exactly this tag instead of every non-current tag",
    )
    p_prune.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    p_prune.set_defaults(func=_cmd_prune)

    p_worker = sub.add_parser(
        "worker", help="steal and execute broker jobs from <cache-dir>/queue/"
    )
    p_worker.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_worker.add_argument(
        "--worker-id", help="telemetry id (default: <hostname>-<pid>)"
    )
    p_worker.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue stays empty for --max-idle seconds",
    )
    p_worker.add_argument(
        "--max-idle",
        type=float,
        help="exit after this many idle seconds (default with --drain: 10)",
    )
    p_worker.add_argument(
        "--max-jobs", type=int, help="exit after completing this many jobs"
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_queue = sub.add_parser("queue", help="show broker queue state counts")
    p_queue.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_queue.set_defaults(func=_cmd_queue)

    p_status = sub.add_parser(
        "status", help="service-mode dashboard: queue, workers, sweep ETA"
    )
    p_status.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_status.add_argument(
        "--manifest",
        help="sweep manifest to report progress against (default: newest)",
    )
    p_status.add_argument(
        "--json", action="store_true", help="print the snapshot as JSON"
    )
    p_status.add_argument(
        "--watch",
        action="store_true",
        help="repaint the dashboard until interrupted",
    )
    p_status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch repaints (default 2)",
    )
    p_status.set_defaults(func=_cmd_status)

    p_serve = sub.add_parser(
        "serve", help="run a sweep under a supervised autoscaling worker fleet"
    )
    p_serve.add_argument("sweep", help="named sweep to run (see sweeps list)")
    p_serve.add_argument("--cache-dir", help="cache directory (or REPRO_CACHE_DIR)")
    p_serve.add_argument("--scale", help="quick|default|full (or REPRO_SCALE)")
    p_serve.add_argument(
        "--workload-set", help="paper|extended|all (or REPRO_WORKLOAD_SET)"
    )
    p_serve.add_argument(
        "--max-workers",
        type=int,
        help="fleet ceiling (or REPRO_SUPERVISOR_MAX; default 4)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
