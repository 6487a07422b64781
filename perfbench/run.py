#!/usr/bin/env python3
"""The repository benchmark: one workload per run, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile-matrix --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that prints the per-layer
metrics (and writes its spans under ``perfbench/out/``). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything above it is a readable report.
See ``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import signal
import sys

from benchlib import OUT, SRC, import_seconds, scrub_repro_env, source_identity
from spans import STAGE_KEYS

#: Workload name -> the module that runs it.
WORKLOADS = {
    "profile-matrix": "matrix",
    "hybrid-dense": "hybrid",
    "fleet-2w": "fleet",
}

#: The end-to-end metrics, measured with tracing off: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("sim_kips", "kinstr/s"),
    ("cell_s_p50", "s"),
    ("cell_s_tail", "s"),
    ("makespan_s", "s"),
    ("fleet_util", "ratio"),
    ("peak_rss_mb", "MB"),
)

STAGES = tuple(dict.fromkeys(STAGE_KEYS.values()))

#: Spans whose calls and self time are both reported.
TIMED_SPANS = (
    *(f"core.stages.{stage}" for stage in STAGES),
    "branch.tage.predict",
    "branch.tage.update",
    "branch.btb.lookup",
    "frontend.predecode",
    "memory.demand_access",
    "memory.prefetch_probe",
    "prefetch.next_prefetch",
    "prefetch.on_retired_block",
)

#: The per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("workloads.build_cfg_s", "s"),
    ("workloads.generate_trace_s", "s"),
    ("core.engine.cycles", "count"),
    ("core.engine.ns_per_cycle", "ns"),
    *((f"{span}.{kind}", unit) for span in TIMED_SPANS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("branch.btb.insert.calls", "count"),
    ("memory.drain_arrivals.self_s", "s"),
    ("analytic.series", "count"),
    ("analytic.escalated_series", "count"),
    ("analytic.exact_cells", "count"),
    ("analytic.estimated_frac", "ratio"),
    ("analytic.plan_s", "s"),
    ("analytic.fit_s", "s"),
    ("analytic.predict_s", "s"),
    ("analytic.err_max", "ratio"),
    ("runtime.run_many_s", "s"),
    ("runtime.execute_s", "s"),
    ("runtime.overhead_s", "s"),
    ("runtime.broker.enqueue_s", "s"),
    ("runtime.broker.collect_s", "s"),
    ("runtime.broker.run_s_sum", "s"),
    ("runtime.broker.queue_wait_s_p50", "s"),
    ("runtime.broker.queue_wait_s_tail", "s"),
    ("runtime.broker.idle_s", "s"),
    ("runtime.broker.retries", "count"),
    ("runtime.broker.cost_rank_corr", "rho"),
    ("runtime.supervisor.peak_workers", "count"),
    ("runtime.supervisor.first_done_s", "s"),
    ("runtime.supervisor.tick_s", "s"),
    ("warehouse.refresh_s", "s"),
    ("warehouse.cells", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def span_layers(tracer) -> dict[str, float]:
    """The per-layer metrics read straight off the tracer's span stats."""
    layers: dict[str, float] = {
        "workloads.build_cfg_s": tracer.self_s("workloads.build_cfg"),
        "workloads.generate_trace_s": tracer.self_s("workloads.generate_trace"),
        "branch.btb.insert.calls": tracer.calls("branch.btb.insert"),
        "memory.drain_arrivals.self_s": tracer.self_s("memory.drain_arrivals"),
    }
    for span in TIMED_SPANS:
        layers[f"{span}.calls"] = tracer.calls(span)
        layers[f"{span}.self_s"] = tracer.self_s(span)
    return layers


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 keeps the stock inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds; sets the work via nominal unit costs (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    dropped = scrub_repro_env()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run unwinds like an interrupt, so the fleet is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    module = importlib.import_module(WORKLOADS[args.workload])

    tracer = None
    hooks = contextlib.nullcontext()
    if args.trace:
        from spans import Tracer, installed

        tracer = Tracer()
        hooks = installed(tracer)
    with hooks:
        outcome = module.run(args.seconds, args.seed, tracer)

    if tracer:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(span_layers(tracer))
        layers.update(outcome.layers)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        value, unit = outcome.metrics["setup_s"]
        outcome.metrics["setup_s"] = (value + import_seconds(WORKLOADS[args.workload]), unit)
        metrics = {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in END_TO_END
        }

    commit, digest = source_identity()
    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  code: commit {commit}, src sha256 {digest}; python "
          f"{platform.python_version()}, {os.cpu_count()} cpu(s)")
    print(f"  options: {module.OPTIONS}")
    print(f"  REPRO_* dropped from the environment: {', '.join(dropped) or 'none'}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'fail_frac':<34} {fail_frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} cells)")
    if tracer:
        print(f"  spans written to {spans_path}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
