#!/usr/bin/env python3
"""Assert a broker queue drained cleanly: every job done exactly once.

CI's two-worker smoke runs a named sweep through the broker backend with
external `python -m repro.runtime worker` processes, then calls this to
verify the distributed invariants from the queue's own records:

* no job left pending/claimed/failed,
* every done record completed on its **first** attempt (no crashes, no
  duplicate executions — the atomic-rename claim held),
* at least ``--min-workers`` distinct worker ids appear (work stealing
  actually spread the batch),
* optionally, exactly ``--expect-jobs`` jobs completed.

Prints a per-worker job/time table for the CI step summary and exits
non-zero on any violation.

Usage::

    python scripts/broker_smoke_check.py --cache-dir DIR
        [--expect-jobs N] [--min-workers 2]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.runtime import BrokerQueue  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--expect-jobs", type=int, default=None)
    parser.add_argument("--min-workers", type=int, default=2)
    parser.add_argument(
        "--allow-retries",
        action="store_true",
        help=(
            "accept done records with attempts > 1 (the kill-a-worker "
            "resume smoke recovers a SIGKILLed worker's lease, so exactly"
            "-once means one *completion*, not one attempt)"
        ),
    )
    args = parser.parse_args(argv)

    queue = BrokerQueue(args.cache_dir)
    counts = queue.counts()
    failures: list[str] = []
    for state in ("pending", "claimed", "failed"):
        if counts[state]:
            failures.append(f"{counts[state]} job(s) left in {state}/")
    if args.expect_jobs is not None and counts["done"] != args.expect_jobs:
        failures.append(f"expected {args.expect_jobs} done jobs, found {counts['done']}")

    per_worker: dict[str, dict[str, float]] = {}
    retried: list[str] = []
    for path in sorted(queue.done.glob("*.json")):
        record = queue.read_done(path.stem)
        if record is None:
            failures.append(f"{path.name}: damaged or stale done record")
            continue
        if record.get("attempts") != 1:
            retried.append(f"{record.get('job_id')} took {record.get('attempts')} attempts")
        stats = per_worker.setdefault(
            record.get("worker", "?"), {"jobs": 0, "run_s": 0.0, "wait_s": 0.0}
        )
        stats["jobs"] += 1
        stats["run_s"] += record.get("run_s", 0.0)
        stats["wait_s"] += record.get("queue_wait_s", 0.0)
    if retried and not args.allow_retries:
        failures.append("jobs not completed exactly once: " + "; ".join(retried))
    elif retried:
        print("recovered jobs (allowed): " + "; ".join(retried))
    if len(per_worker) < args.min_workers:
        failures.append(
            f"only {len(per_worker)} worker(s) completed jobs "
            f"({', '.join(sorted(per_worker)) or 'none'}); need >= {args.min_workers}"
        )

    print(f"broker queue {queue.root}: {counts['done']} done job(s)")
    print(f"{'worker':<24s} {'jobs':>5s} {'run_s':>8s} {'wait_s':>8s}")
    for worker, stats in sorted(per_worker.items()):
        print(
            f"{worker:<24s} {stats['jobs']:5d} {stats['run_s']:8.2f} "
            f"{stats['wait_s']:8.2f}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: every job completed exactly once across "
          f"{len(per_worker)} workers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
