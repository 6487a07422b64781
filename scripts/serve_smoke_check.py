#!/usr/bin/env python3
"""Assert a supervised `serve` run autoscaled, drained, and wound down.

CI's broker job runs a named sweep through the one-command service mode
(`python -m repro.runtime serve`) and then calls this to verify the
supervisor's contract from its own on-disk records
(`<cache-dir>/queue/supervisor.json`, written atomically every tick):

* the fleet autoscaled up to at least ``--min-peak`` concurrent workers,
* it wound back down to zero live workers afterwards,
* no worker crashed (``--allow-crashes`` relaxes this for fault smokes),
* the queue drained: nothing pending/claimed/failed, every done record
  completed by a supervised worker.

Prints the supervisor counters and event timeline as a markdown section
(pipe into ``$GITHUB_STEP_SUMMARY``) and exits non-zero on violation.

Usage::

    python scripts/serve_smoke_check.py --cache-dir DIR
        [--min-peak 2] [--allow-crashes]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.runtime import BrokerQueue  # noqa: E402
from repro.runtime.supervisor import read_supervisor_state  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--min-peak", type=int, default=2)
    parser.add_argument("--allow-crashes", action="store_true")
    args = parser.parse_args(argv)

    queue = BrokerQueue(args.cache_dir)
    failures: list[str] = []

    state = read_supervisor_state(queue)
    if state is None:
        print(
            f"FAIL: no readable supervisor state at {queue.root / 'supervisor.json'}",
            file=sys.stderr,
        )
        return 1

    if state.get("peak_live", 0) < args.min_peak:
        failures.append(
            f"fleet never reached {args.min_peak} concurrent worker(s) "
            f"(peak_live={state.get('peak_live')})"
        )
    if state.get("live", -1) != 0:
        failures.append(f"fleet did not wind down (live={state.get('live')})")
    if state.get("crashes", 0) and not args.allow_crashes:
        failures.append(f"{state['crashes']} worker crash(es) during serve")

    counts = queue.counts()
    for bad in ("pending", "claimed", "failed"):
        if counts[bad]:
            failures.append(f"{counts[bad]} job(s) left in {bad}/")
    unsupervised = set()
    for path in queue.done.glob("*.json"):
        record = queue.read_done(path.stem)
        if record is None:
            failures.append(f"{path.name}: damaged or stale done record")
        elif not record["worker"].startswith("sv"):
            unsupervised.add(record["worker"])
    unsupervised = sorted(unsupervised)
    if unsupervised:
        failures.append(
            "done records from non-supervised workers: " + ", ".join(unsupervised)
        )

    print("### Supervised serve smoke")
    print(
        f"- fleet: peak {state.get('peak_live')} live, "
        f"{state.get('spawned')} spawned, {state.get('retired')} retired, "
        f"{state.get('crashes')} crash(es), final live {state.get('live')}"
    )
    print(f"- queue: {counts['done']} done, {counts['failed']} failed")
    print()
    print("| t (rel) | event | worker | live |")
    print("|---|---|---|---|")
    timeline = state.get("timeline", [])
    t0 = timeline[0]["t"] if timeline else 0.0
    for event in timeline:
        print(
            f"| +{event['t'] - t0:.1f}s | {event['event']} "
            f"| {event.get('worker') or '—'} | {event['live']} |"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print()
    print(
        f"OK: autoscaled to {state['peak_live']} worker(s), drained "
        f"{counts['done']} job(s), wound down to 0"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
