"""``fleet-2w``: a supervised two-worker broker fleet, end to end.

The benchmark process is the coordinator. It enqueues 27 cells, in a
seeded order, through ``BrokerQueue`` and ticks a ``Supervisor`` capped
at 2 workers; the coordinator does not steal, so the engine work runs in
the worker processes. A batch ends with ``refresh_warehouse`` on its
temp cache dir.
It is the only workload where the broker, the supervisor, result-cache
writes and the warehouse sit on the critical path, and where scheduling
quality, not engine speed, sets part of the result.

The cells: per paper workload, dense-grid cells at quick scale — ``none``,
``fdip`` and ``boomerang`` at LLC latency 70 and ``fdip`` or
``boomerang`` (alternating) at latency 30 — plus three ``default``-scale
cells (4x longer trace) at latency 1 on apache, nutch and zeus; BTB sizes
cycle through the dense-grid axis. ``estimate_job_cost`` (trace length ×
LLC round trip) ranks those long cells below every short cell, so
longest-first claiming starts them last and claim order moves the
makespan. The cells are the same for every seed; the seed picks the
submission order (which breaks cost ties in claim order) and the checked
sample.

Checks: a seeded sample of done results (quick cells) must equal an
in-process ``Simulator`` run bit for bit. A cell that lands in
``failed/``, is still unresolved at the deadline, or whose worker
crashed counts as failed; nothing waits past the deadline. Every worker
is stopped and reaped and the temp dir removed on success, failure and
interrupt. Worker logs go to standard error. A run measures
``--seconds`` / 15 s batches (two at the default 30 s), each on a
fleet and temp dir of its own.

Set-up (``setup_s``) is what the coordinator does before its first
enqueue — the temp cache/queue dir, building the cells' nine workloads
into that dir's trace store, ``BrokerQueue`` and ``Supervisor``
construction — plus the import of this module. A broker worker reads
workloads from the trace store of its cache dir by default, so the
workers load them instead of building them inside their ``run_s``, as
they would from a warm service cache dir; a build inside ``run_s`` would
land on whichever cell a worker happened to claim first for that
workload and make per-cell times depend on claim races. The check
references are the coordinator's own in-memory builds.
"""

from __future__ import annotations

import contextlib
import os
import gc
import random
import shutil
import sys
import tempfile
import time

from benchlib import OUT, SETUP_REPS, SRC, median, peak_rss_mb, spearman, tail, units_for
from outcome import Outcome

from repro import ALL_PROFILES, Simulator, make_config
from repro.experiments.common import get_scale
from repro.runtime import SimJob
from repro.runtime.broker import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SCHEDULER,
    BrokerQueue,
)
from repro.runtime.runner import estimate_job_cost
from repro.runtime.supervisor import Supervisor, SupervisorOptions
from repro.warehouse import refresh_warehouse
from repro.workloads import (
    clear_workload_cache,
    configure_trace_store,
    get_profile,
    load_workload,
)

MAX_WORKERS = 2
QUICK = get_scale("quick").workload_scale
DEFAULT = get_scale("default").workload_scale
MECHANISMS = ("none", "fdip", "boomerang")
LONG_WORKLOADS = ("apache", "nutch", "zeus")
BTB_SIZES = (2048, 4096, 8192, 16384, 32768)  # the dense-latency-btb BTB axis

#: Nominal cost of one batch: sets how many batches a run measures (two
#: at the default 30 s, so the per-cell quantiles rest on 54 cells).
NOMINAL_BATCH_S = 15.0

#: Done results re-run in-process per run.
CHECK_CELLS = 3

#: Coordinator polling interval (supervisor tick + done-record scan).
POLL_S = 0.1

#: A batch still unresolved this long after its first enqueue fails.
DEADLINE_S = 120.0

#: Supervisor defaults, except the 2-worker cap.
SUPERVISOR = SupervisorOptions(max_workers=MAX_WORKERS)

OPTIONS = (
    f"27 cells per batch, BrokerQueue defaults ({DEFAULT_SCHEDULER}-first claims, lease "
    f"{DEFAULT_LEASE_SECONDS:g}s, {DEFAULT_MAX_ATTEMPTS} attempts), {SUPERVISOR}, "
    f"coordinator does not steal, deadline {DEADLINE_S:g}s"
)


def fleet_cells() -> list[SimJob]:
    """The batch's cells, the same for every seed.

    BTB sizes cycle through the dense-grid axis and the latency-30 and
    long cells alternate ``fdip``/``boomerang``, so every batch holds the
    same work and only its order (and the checked sample) is seeded.
    """
    specs = []
    for i, profile in enumerate(ALL_PROFILES):
        specs.extend((profile.name, mech, 70, QUICK) for mech in MECHANISMS)
        specs.append((profile.name, MECHANISMS[1 + i % 2], 30, QUICK))
    specs.extend(
        (name, MECHANISMS[1 + i % 2], 1, DEFAULT) for i, name in enumerate(LONG_WORKLOADS)
    )
    return [
        SimJob(workload, make_config(mech).with_llc_latency(latency)
               .with_btb_entries(BTB_SIZES[k % len(BTB_SIZES)]), scale)
        for k, (workload, mech, latency, scale) in enumerate(specs)
    ]


def fleet_jobs(rng: random.Random) -> list[SimJob]:
    """The batch's cells in a seeded submission order."""
    jobs = fleet_cells()
    rng.shuffle(jobs)
    return jobs


def trace_instrs(job: SimJob) -> int:
    return get_profile(job.workload).scaled(job.workload_scale).default_trace_instrs


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def fleet_workloads() -> list[tuple[str, float]]:
    """The (workload, scale) builds the batch's cells need."""
    return list(dict.fromkeys((job.workload, job.workload_scale) for job in fleet_cells()))


def start_fleet(env: dict[str, str]) -> tuple[str, BrokerQueue, Supervisor]:
    """What the coordinator does before its first enqueue (timed as set-up).

    Makes the temp cache/queue dir, builds every workload the cells need
    into that dir's trace store — the store a broker worker reads by
    default, as a warm service cache dir would hold them — and builds the
    queue and the supervisor; no worker starts until the first tick.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="fleet-", dir=OUT)
    try:
        clear_workload_cache()
        configure_trace_store(cache_dir)
        try:
            for name, scale in fleet_workloads():
                load_workload(name, scale=scale)
        finally:
            configure_trace_store(None)
        return cache_dir, BrokerQueue(cache_dir), Supervisor(cache_dir, SUPERVISOR, env=env)
    except BaseException:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise


def stop_fleet(fleet: tuple[str, BrokerQueue, Supervisor]) -> None:
    """Reap every worker the fleet started and remove its temp dir."""
    cache_dir, _, supervisor = fleet
    try:
        supervisor.stop()  # idempotent
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_batch(fleet: tuple[str, BrokerQueue, Supervisor], jobs: list[SimJob], tracer) -> dict:
    """Enqueue ``jobs``, supervise the fleet until all resolve, refresh.

    The batch owns ``fleet``: it is stopped and removed on every path out.
    """
    cache_dir, queue, supervisor = fleet
    saved_stdout = None
    try:
        # Workers inherit standard output; send their logs to standard
        # error so the report's last line stays the result.
        sys.stdout.flush()
        saved_stdout = os.dup(1)
        os.dup2(2, 1)
        t0 = time.perf_counter()
        with _span(tracer, "runtime.broker.enqueue"):
            ids = [queue.enqueue(job) for job in jobs]
        enqueue_s = time.perf_counter() - t0
        unresolved = dict(zip(ids, jobs))
        records, lost = {}, []
        tick_s = collect_s = 0.0
        first_done = None
        while unresolved:
            now = time.perf_counter()
            if now - t0 > DEADLINE_S:
                lost.extend(unresolved)
                break
            with _span(tracer, "runtime.supervisor.tick"):
                supervisor.tick()
            collect_start = time.perf_counter()
            tick_s += collect_start - now
            with _span(tracer, "runtime.broker.collect"):
                for job_id in list(unresolved):
                    record = queue.read_done(job_id)
                    if record is None and queue.read_failed(job_id) is None:
                        continue
                    del unresolved[job_id]
                    if record is None:
                        lost.append(job_id)
                        continue
                    records[job_id] = record
                    if first_done is None:
                        first_done = time.perf_counter() - t0
            collect_s += time.perf_counter() - collect_start
            if unresolved:
                time.sleep(POLL_S)
        refresh_start = time.perf_counter()
        with _span(tracer, "warehouse.refresh"):
            refreshed = refresh_warehouse(cache_dir)
        end = time.perf_counter()
        supervisor.stop()
        return {
            "jobs": dict(zip(ids, jobs)),
            "records": records,
            "lost": lost,
            "crashes": supervisor.crashes,
            "peak_workers": supervisor.peak_live,
            "makespan_s": end - t0,
            "enqueue_s": enqueue_s,
            "collect_s": collect_s,
            "tick_s": tick_s,
            "first_done_s": first_done if first_done is not None else end - t0,
            "refresh_s": end - refresh_start,
            "warehouse_cells": refreshed.inserted + refreshed.updated + refreshed.unchanged,
        }
    finally:
        if saved_stdout is not None:
            os.dup2(saved_stdout, 1)
            os.close(saved_stdout)
        stop_fleet(fleet)


def run(seconds: float, seed: int, tracer) -> Outcome:
    out = Outcome()
    configure_trace_store(None)
    rng = random.Random(seed)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)

    first_jobs = fleet_jobs(rng)
    sample = rng.sample([j for j in first_jobs if j.workload_scale == QUICK], CHECK_CELLS)

    # Each batch runs on a fleet of its own, set up (and timed) before the
    # first batch starts; at least SETUP_REPS set-ups are timed, and any no
    # batch needs is stopped at once.
    n_batches = units_for(seconds, NOMINAL_BATCH_S)
    setups, fleets = [], []
    batches = []
    try:
        for i in range(max(n_batches, 1 if tracer else SETUP_REPS)):
            start = time.perf_counter()
            fleet = start_fleet(env)
            setups.append(time.perf_counter() - start)
            if i < n_batches:
                fleets.append(fleet)
            else:
                stop_fleet(fleet)
        gc.collect()  # start the measured work without set-up garbage

        for i, fleet in enumerate(fleets):
            jobs = first_jobs if i == 0 else fleet_jobs(rng)
            batch = run_batch(fleet, jobs, tracer)
            batches.append(batch)
            if batch["lost"]:
                break
    finally:
        for fleet in fleets[len(batches):]:  # run_batch stopped the others
            stop_fleet(fleet)

    # Checks, untimed.
    traced_s = untraced_s = 0.0
    for batch in batches:
        out.attempted += len(batch["jobs"])
        for job_id in batch["lost"]:
            out.check(False, job_id, "failed or unresolved at the deadline")
        for crash in range(batch["crashes"]):
            out.check(False, f"worker crash {crash + 1}", "a worker exited non-zero")
    first = batches[0]
    for job in sample:
        job_id = BrokerQueue.job_id(job)
        record = first["records"].get(job_id)
        if record is None:
            continue  # already counted as lost
        reference = load_workload(job.workload, scale=QUICK)
        start = time.perf_counter()
        raw = Simulator(reference, job.config).run().raw
        untraced = time.perf_counter() - start
        out.check(raw == record["result"]["raw"], job_id, "differs from an in-process run")
        if tracer:
            with tracer.cell_span(job_id):
                start = time.perf_counter()
                traced_raw = Simulator(reference, job.config).run().raw
                traced_s += time.perf_counter() - start
            untraced_s += untraced
            out.check(traced_raw == raw, job_id, "tracing changed stats")

    done = [
        (batch["jobs"][job_id], record)
        for batch in batches
        for job_id, record in batch["records"].items()
    ]
    if not done:
        raise SystemExit("fleet-2w: no cell completed; no metrics to report")
    run_s = [record["run_s"] for _, record in done]
    waits = [record["queue_wait_s"] for _, record in done]
    makespans = [b["makespan_s"] for b in batches]
    cells = sum(len(b["records"]) for b in batches)
    tail_s, tail_pct, n = tail(run_s)
    out.notes.append(
        f"{len(batches)} batch(es): {cells} cells, makespan "
        f"{', '.join(f'{m:.2f}s' for m in makespans)}, peak "
        f"{max(b['peak_workers'] for b in batches)} worker(s); "
        f"cell_s_tail is p{tail_pct:.1f} of n={n}"
    )
    out.metrics.update(
        setup_s=(median(setups), "s"),
        cells_per_s=(cells / sum(makespans), "cells/s"),
        sim_kips=(sum(trace_instrs(job) for job, _ in done) / sum(run_s) / 1e3, "kinstr/s"),
        cell_s_p50=(median(run_s), "s"),
        cell_s_tail=(tail_s, "s"),
        makespan_s=(median(makespans), "s"),
        fleet_util=(sum(run_s) / (MAX_WORKERS * sum(makespans)), "ratio"),
        peak_rss_mb=(peak_rss_mb(children=True), "MB"),
    )
    wait_tail, _, _ = tail(waits)
    cycles = sum(record["result"]["raw"]["total_cycles"] for _, record in done)
    out.layers.update({
        "core.engine.cycles": cycles,
        "core.engine.ns_per_cycle": sum(run_s) / cycles * 1e9,
        "runtime.broker.enqueue_s": sum(b["enqueue_s"] for b in batches),
        "runtime.broker.collect_s": sum(b["collect_s"] for b in batches),
        "runtime.broker.run_s_sum": sum(run_s),
        "runtime.broker.queue_wait_s_p50": median(waits),
        "runtime.broker.queue_wait_s_tail": wait_tail,
        "runtime.broker.idle_s": MAX_WORKERS * sum(makespans) - sum(run_s),
        "runtime.broker.retries": sum(record["attempts"] - 1 for _, record in done),
        "runtime.broker.cost_rank_corr": spearman(
            [float(estimate_job_cost(job) or 0) for job, _ in done], run_s
        ),
        "runtime.supervisor.peak_workers": max(b["peak_workers"] for b in batches),
        "runtime.supervisor.first_done_s": median([b["first_done_s"] for b in batches]),
        "runtime.supervisor.tick_s": sum(b["tick_s"] for b in batches),
        "warehouse.refresh_s": sum(b["refresh_s"] for b in batches),
        "warehouse.cells": sum(b["warehouse_cells"] for b in batches),
    })
    if tracer:
        out.layers["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    return out
