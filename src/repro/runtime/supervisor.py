"""Supervised service mode: an autoscaling worker fleet + live status.

The broker (:mod:`repro.runtime.broker`) made distributed execution
possible; this module makes it *operable*. Instead of a human starting
``python -m repro.runtime worker`` processes by hand and polling
``queue`` counts, a :class:`Supervisor` watches the queue and runs the
fleet itself:

* **Autoscaling** — the pending backlog's cost estimates (the same
  ``__w`` weight tokens the longest-first scheduler reads) determine how
  many workers can actually shorten the makespan: with longest-first
  claiming the critical path is the single longest pending job, so
  workers beyond ``ceil(total_cost / longest_cost)`` cannot help.
  :func:`desired_workers` caps that ideal at ``max_workers``, the one
  fleet knob. Every worker is started with ``--drain``, so scale-*down*
  is self-service: an idle worker retires on its own and the supervisor
  just reaps it.
* **Crash restarts with bounded backoff** — a worker that exits
  non-zero is counted, and the next spawn round is pushed out by an
  exponentially growing delay (capped at :data:`BACKOFF_CAP_SECONDS`),
  so a crash-looping configuration cannot hot-spin the fleet. A clean
  exit resets the streak. The supervisor also runs the broker's lease
  recovery each tick, so a SIGKILLed worker's claim is requeued and
  picked up by its replacement.
* **Observability** — :func:`build_status` assembles one JSON-ready
  snapshot of everything service mode can see (queue depths, per-worker
  throughput from done-record telemetry, live lease ages, cache /
  trace-store stats, supervisor state, and per-cell sweep progress with
  an ETA); :func:`render_status` turns it into the dashboard behind
  ``python -m repro.runtime status [--watch] [--json]``. Watch mode
  repaints with one atomic full-screen write per frame — no flicker,
  no partial lines.

Sweep progress joins the *active sweep manifest*
(:mod:`repro.experiments.sweeps.manifest`) against the live queue
directories and the result cache: every cell is in exactly one of
:data:`CELL_STATES` (``unsubmitted → pending → claimed → done/failed``),
and the ETA divides the remaining cost estimate by the fleet's observed
seconds-per-cost-unit (completed cells' ``run_s`` telemetry). A cell
cached by an earlier run steps straight from ``unsubmitted`` to ``done``.

:func:`serve_sweep` ties it together: one call (or ``python -m
repro.runtime serve <sweep>``) starts the sweep coordinator as a
subprocess (with coordinator stealing disabled, so the fleet does the
work), autoscales workers while it runs, and stops the fleet when the
coordinator exits. The results are bit-identical to hand-started workers
— the supervisor only decides *how many* workers run, never *what* they
compute.

The supervisor's own durable state (``<cache-dir>/queue/supervisor.json``
— fleet counters plus a bounded event timeline) is written atomically
via :mod:`repro.runtime.atomicio` like every other queue record, so a
status reader can never observe a torn snapshot.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..envopts import REPRO_ENV_OPTIONS, exported, read_env, resolve
from ..errors import ConfigError, CorruptRecord
from ..tagdirs import fmt_size, scan_tags
from .atomicio import atomic_write_json, read_json
from .broker import BrokerQueue, key_job_id
from .cache import SCHEMA_TAG, ResultCache

if TYPE_CHECKING:  # pragma: no cover - cycle guard (sweeps import runtime)
    from ..experiments.sweeps.manifest import ManifestCell, SweepManifest

#: Durable supervisor-state record version (``queue/supervisor.json``;
#: v2: no ``min_workers``, no per-worker ``persistent`` flag; v3: the
#: record carries a ``crc32``, and a damaged one reads as absent).
SUPERVISOR_SCHEMA = "supervisor-v3"

#: ``status --json`` snapshot format version (v2: the sweep section's
#: ``cost_rank_corr`` / ``cost_rank_cells``; v3: the ``cache`` object
#: holds only ``tag``/``records``/``size_bytes``/``stale_records``; v4:
#: ``stale_records`` counts stale analytic tags too, everything
#: ``runtime prune`` reclaims, and job ids come from the broker's
#: :func:`~repro.runtime.broker.key_job_id`).
STATUS_SCHEMA = "status-v4"

#: Fewest completed cells over which the cost model's rank correlation
#: is reported; below this it is ``None``.
MIN_RANK_CELLS = 3

#: Every state a sweep cell can be in, in lifecycle order. A cell only
#: ever moves rightward through this tuple (``failed`` is terminal like
#: ``done``); a cell cached by an earlier run skips the queue states.
CELL_STATES: tuple[str, ...] = (
    "unsubmitted",
    "pending",
    "claimed",
    "done",
    "failed",
)

#: Fleet ceiling default, overridable via REPRO_SUPERVISOR_MAX.
DEFAULT_MAX_WORKERS: int = REPRO_ENV_OPTIONS["REPRO_SUPERVISOR_MAX"].default

#: ``--max-idle`` handed to every spawned worker: how long an idle
#: worker waits before retiring.
WORKER_IDLE_SECONDS = 10.0

#: Base crash-restart delay; doubles per consecutive crash, capped at
#: :data:`BACKOFF_CAP_SECONDS` however long the streak.
BACKOFF_SECONDS = 1.0
BACKOFF_CAP_SECONDS = 30.0

#: Timeline events kept in the durable state (oldest dropped first).
TIMELINE_CAP = 200


# ---------------------------------------------------------------------------
# Option resolution (explicit arg beats REPRO_SUPERVISOR_MAX beats default)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorOptions:
    """Fleet options; ``max_workers`` is checked like ``REPRO_SUPERVISOR_MAX``."""

    #: Fleet ceiling, whatever the backlog demands.
    max_workers: int = DEFAULT_MAX_WORKERS

    def __post_init__(self) -> None:
        REPRO_ENV_OPTIONS["REPRO_SUPERVISOR_MAX"].parse(self.max_workers)


def supervisor_options(max_workers: int | None = None) -> SupervisorOptions:
    """The fleet ceiling: explicit argument > ``REPRO_SUPERVISOR_MAX`` > 4."""
    return SupervisorOptions(resolve("REPRO_SUPERVISOR_MAX", max_workers))


# ---------------------------------------------------------------------------
# Scaling policy
# ---------------------------------------------------------------------------


def pending_costs(queue: BrokerQueue) -> list[int | None]:
    """The backlog's per-job cost estimates, straight from one listdir.

    The queue filename grammar carries each job's deterministic cost as
    its ``__w`` weight token, so sizing the fleet needs no spec reads.
    Jobs without an estimate read as ``None``.
    """
    return [cost for _, _, cost, _ in queue.list_jobs(queue.pending)]


def desired_workers(
    costs: Sequence[int | None], options: SupervisorOptions
) -> int:
    """How many workers the current backlog can actually keep busy.

    Under longest-first scheduling the batch cannot finish faster than
    its single longest job, so workers beyond ``ceil(total / longest)``
    only idle: the ideal fleet is ``min(backlog, ceil(total/longest))``,
    capped at ``max_workers``. Jobs without a cost estimate are
    assumed longest-sized (the conservative direction — more workers),
    and an all-unknown backlog falls back to one worker per job.
    """
    backlog = len(costs)
    if backlog == 0:
        ideal = 0
    else:
        known = [c for c in costs if c]
        if known:
            longest = max(known)
            total = sum(known) + longest * (backlog - len(known))
            ideal = min(backlog, math.ceil(total / longest))
        else:
            ideal = backlog
    return min(options.max_workers, ideal)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class WorkerProcess:
    """One live fleet member (a ``python -m repro.runtime worker``)."""

    worker_id: str
    proc: subprocess.Popen[bytes]
    started_at: float


class Supervisor:
    """Spawn, scale, reap and restart a broker worker fleet.

    Drive it by calling :meth:`tick` from a loop (``serve_sweep`` does);
    every tick recovers expired leases, reaps exited workers, applies
    the scaling policy, and persists the durable state snapshot.

    ``worker_command`` substitutes the spawned command line (the test
    harness uses stubs to exercise lifecycle without the engine);
    ``env`` is passed through to the subprocesses (``None`` inherits).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str],
        options: SupervisorOptions | None = None,
        worker_command: Sequence[str] | None = None,
        env: dict[str, str] | None = None,
    ):
        self.cache_dir = Path(cache_dir)
        self.options = options or supervisor_options()
        self.queue = BrokerQueue(cache_dir)
        self.worker_command = (
            list(worker_command) if worker_command is not None else None
        )
        self.env = dict(env) if env is not None else None
        self.workers: list[WorkerProcess] = []
        self.timeline: list[dict[str, Any]] = []
        self.started_at = time.time()
        self.spawned = 0
        self.retired = 0
        self.crashes = 0
        self.peak_live = 0
        self._next_worker = 0
        self._next_spawn_at = 0.0
        self._consecutive_crashes = 0

    @property
    def state_path(self) -> Path:
        return self.queue.root / "supervisor.json"

    @property
    def live(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------- events

    def _event(self, event: str, worker: str | None, **detail: Any) -> None:
        record: dict[str, Any] = {
            "t": round(time.time() - self.started_at, 3),
            "event": event,
            "worker": worker,
            "live": len(self.workers),
        }
        record.update(detail)
        self.timeline.append(record)
        del self.timeline[:-TIMELINE_CAP]

    # -------------------------------------------------------------- fleet

    def _spawn_one(self, pending: int) -> WorkerProcess:
        self._next_worker += 1
        worker_id = f"sv{os.getpid()}-{self._next_worker}"
        if self.worker_command is not None:
            cmd = list(self.worker_command)
        else:
            cmd = [
                sys.executable,
                "-m",
                "repro.runtime",
                "worker",
                "--cache-dir",
                str(self.cache_dir),
                "--worker-id",
                worker_id,
                "--drain",
                "--max-idle",
                str(WORKER_IDLE_SECONDS),
            ]
        proc: subprocess.Popen[bytes] = subprocess.Popen(cmd, env=self.env)
        worker = WorkerProcess(worker_id, proc, time.time())
        self.workers.append(worker)
        self.spawned += 1
        self.peak_live = max(self.peak_live, len(self.workers))
        self._event("spawn", worker_id, pid=proc.pid, pending=pending)
        return worker

    def reap(self) -> None:
        """Collect exited workers; a non-zero exit arms the backoff gate.

        Each worker is polled exactly once, so one that exits mid-reap
        is either still live or accounted for — never dropped uncounted.
        """
        live: list[WorkerProcess] = []
        exited: list[WorkerProcess] = []
        for worker in self.workers:
            (live if worker.proc.poll() is None else exited).append(worker)
        self.workers = live
        for worker in exited:
            returncode = worker.proc.returncode
            if returncode == 0:
                self.retired += 1
                self._consecutive_crashes = 0
                self._event("retire", worker.worker_id, returncode=0)
                continue
            self.crashes += 1
            self._consecutive_crashes += 1
            backoff = min(
                BACKOFF_CAP_SECONDS,
                BACKOFF_SECONDS * 2 ** (self._consecutive_crashes - 1),
            )
            self._next_spawn_at = max(
                self._next_spawn_at, time.time() + backoff
            )
            self._event(
                "crash",
                worker.worker_id,
                returncode=returncode,
                backoff_s=round(backoff, 3),
            )

    def tick(self) -> dict[str, Any]:
        """One supervision round; returns the persisted state record.

        Lease recovery runs first, so a crashed worker's claim is back
        in ``pending/`` — and therefore visible to the scaling policy —
        before the fleet size is decided. Replacing a crashed worker is
        just scale-up seeing its requeued job, gated by the crash
        backoff armed in :meth:`reap`.
        """
        self.queue.recover_expired()
        self.reap()
        costs = pending_costs(self.queue)
        desired = desired_workers(costs, self.options)
        if time.time() >= self._next_spawn_at:
            while len(self.workers) < desired:
                self._spawn_one(pending=len(costs))
        return self.write_state()

    def stop(self) -> None:
        """Terminate every live worker and persist the final state.

        Idle workers retire themselves; this winds down whatever is
        still running (serve calls it when the coordinator exits).
        Stopped workers are not counted as crashes.
        """
        stopping, self.workers = self.workers, []
        for worker in stopping:
            if worker.proc.poll() is None:
                try:
                    worker.proc.terminate()
                except OSError:
                    pass
        for worker in stopping:
            try:
                worker.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait(timeout=10)
            self._event(
                "stop", worker.worker_id, returncode=worker.proc.returncode
            )
        self.write_state()

    # -------------------------------------------------------------- state

    def _state_record(self) -> dict[str, Any]:
        """The durable snapshot (``queue/supervisor.json``)."""
        now = time.time()
        return {
            "schema": SUPERVISOR_SCHEMA,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": now,
            "max_workers": self.options.max_workers,
            "live": len(self.workers),
            "peak_live": self.peak_live,
            "spawned": self.spawned,
            "retired": self.retired,
            "crashes": self.crashes,
            "workers": [
                {
                    "id": w.worker_id,
                    "pid": w.proc.pid,
                    "age_s": round(now - w.started_at, 3),
                }
                for w in self.workers
            ],
            "timeline": list(self.timeline),
        }

    def write_state(self) -> dict[str, Any]:
        record = self._state_record()
        atomic_write_json(self.state_path, record)
        return record


# ---------------------------------------------------------------------------
# Sweep progress (manifest ⋈ queue ⋈ cache) and ETA
# ---------------------------------------------------------------------------


def cell_job_id(cell: ManifestCell) -> str:
    """A manifest cell's broker job id."""
    return key_job_id((cell.workload, cell.scale_tok, cell.digest))


def _queue_index(queue: BrokerQueue, now: float) -> dict[str, dict[str, Any]]:
    """job id → live queue position, parsed from the two active dirs."""
    index: dict[str, dict[str, Any]] = {}
    for state, directory in (
        ("pending", queue.pending),
        ("claimed", queue.claimed),
    ):
        for name, job_id, cost, attempts in queue.list_jobs(directory):
            entry: dict[str, Any] = {
                "state": state,
                "attempts": attempts,
                "cost": cost,
            }
            if state == "claimed":
                try:
                    entry["lease_age_s"] = round(
                        now - (directory / name).stat().st_mtime, 3
                    )
                except OSError:
                    continue  # released concurrently; not claimed anymore
            index[job_id] = entry
    return index


def sweep_progress(
    cache_dir: str | os.PathLike[str],
    manifest: SweepManifest,
    active_workers: int = 1,
    now: float | None = None,
) -> dict[str, Any]:
    """Per-cell states and an ETA for ``manifest`` against the live queue.

    Each cell lands in exactly one :data:`CELL_STATES` entry: a current
    done record or a cache hit is ``done``, a terminal failure record is
    ``failed``, a live queue file is ``pending``/``claimed`` (with lease
    age and attempts), anything else is ``unsubmitted``.

    The ETA calibrates host seconds per trace instruction (the unit of
    :func:`~repro.runtime.runner.estimate_job_cost`) from cells that
    completed *this run* (done records carrying ``run_s``) and divides
    the remaining cells' cost estimates across ``active_workers``.
    Before any telemetry exists it is ``None`` — an honest "no data
    yet" — and it reaches ``0.0`` exactly when no runnable cells remain,
    so the final prediction error is bounded by the longest single job.

    The same cells measure the cost model itself: ``cost_rank_corr`` is
    the Spearman rank correlation between their cost estimates and
    measured ``run_s`` over ``cost_rank_cells`` cells — ``None`` below
    :data:`MIN_RANK_CELLS` cells or when either side has no spread.
    """
    from .runner import estimate_job_cost

    now = time.time() if now is None else now
    queue = BrokerQueue(cache_dir)
    cache = ResultCache(cache_dir)
    index = _queue_index(queue, now)
    cells: list[dict[str, Any]] = []
    counts: dict[str, int] = dict.fromkeys(CELL_STATES, 0)
    known_costs: list[int] = []
    telemetry_run_s = 0.0
    telemetry_cost = 0
    measured: list[tuple[int, float]] = []
    remaining_cost = 0
    remaining_unknown = 0
    for cell in manifest.cells:
        job_id = cell_job_id(cell)
        cost: int | None
        try:
            cost = estimate_job_cost(cell.job())
        except ConfigError:
            cost = None  # digest drift: progress must render, not raise
        state = "unsubmitted"
        attempts = 0
        lease_age_s: float | None = None
        run_s: float | None = None
        worker: str | None = None
        record = queue.read_done(job_id)
        position = index.get(job_id)
        if record is not None:
            state = "done"
            attempts = int(record.get("attempts", 1))
            run_s = float(record.get("run_s", 0.0))
            worker = record.get("worker")
        elif position is not None:
            state = str(position["state"])
            attempts = int(position["attempts"])
            lease_age_s = position.get("lease_age_s")
            if cost is None:
                cost = position["cost"]
        elif queue.read_failed(job_id) is not None:
            failure = queue.read_failed(job_id) or {}
            state = "failed"
            attempts = int(failure.get("attempts", 0))
        elif cache.get(cell.workload, cell.scale_tok, cell.digest) is not None:
            state = "done"  # cached by an earlier run; no queue telemetry
        counts[state] += 1
        if cost is not None:
            known_costs.append(cost)
        if state == "done":
            if cost is not None and run_s is not None:
                telemetry_run_s += run_s
                telemetry_cost += cost
                measured.append((cost, run_s))
        elif state != "failed":
            if cost is not None:
                remaining_cost += cost
            else:
                remaining_unknown += 1
        cells.append(
            {
                "job_id": job_id,
                "workload": cell.workload,
                "state": state,
                "attempts": attempts,
                "lease_age_s": lease_age_s,
                "run_s": run_s,
                "worker": worker,
                "cost": cost,
            }
        )
    # Unknown-cost remaining cells are billed at the mean known cost —
    # better a rough term than silently dropping them from the ETA.
    if remaining_unknown and known_costs:
        remaining_cost += remaining_unknown * round(
            sum(known_costs) / len(known_costs)
        )
    runnable = counts["unsubmitted"] + counts["pending"] + counts["claimed"]
    secs_per_cost = (
        telemetry_run_s / telemetry_cost if telemetry_cost > 0 else None
    )
    eta_s: float | None
    if runnable == 0:
        eta_s = 0.0
    elif secs_per_cost is None:
        eta_s = None
    else:
        eta_s = round(
            remaining_cost * secs_per_cost / max(1, active_workers), 3
        )
    return {
        "manifest": str(manifest.path) if manifest.path else None,
        "sweep": manifest.sweep,
        "scale": manifest.scale,
        "workload_set": manifest.workload_set,
        "fidelity": manifest.fidelity,
        "cells": len(manifest.cells),
        "counts": counts,
        "remaining_cost": remaining_cost,
        "secs_per_cost": secs_per_cost,
        "active_workers": active_workers,
        "eta_s": eta_s,
        "cost_rank_corr": (
            _spearman([c for c, _ in measured], [r for _, r in measured])
            if len(measured) >= MIN_RANK_CELLS
            else None
        ),
        "cost_rank_cells": len(measured),
        "cell_states": cells,
    }


def _spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation (average ranks for ties).

    ``None`` when it is undefined: fewer than two pairs, or no spread on
    either side.
    """

    def ranks(values: Sequence[float]) -> list[float]:
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    if len(xs) < 2:
        return None
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return round(cov / math.sqrt(vx * vy), 4)


def latest_manifest(cache_dir: str | os.PathLike[str]) -> SweepManifest | None:
    """The most recently written loadable manifest under ``cache_dir``."""
    from ..experiments.sweeps.manifest import load_manifest

    root = Path(cache_dir) / "manifests"

    def mtime(path: Path) -> float:
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    for path in sorted(root.glob("*.json"), key=mtime, reverse=True):
        try:
            return load_manifest(path)
        except ConfigError:
            continue
    return None


# ---------------------------------------------------------------------------
# Status snapshot + dashboard rendering
# ---------------------------------------------------------------------------


def _worker_rows(queue: BrokerQueue, now: float) -> dict[str, dict[str, Any]]:
    """Per-worker throughput, aggregated from done-record telemetry."""
    rows: dict[str, dict[str, Any]] = {}
    try:
        names = os.listdir(queue.done)
    except OSError:
        return rows
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            record = queue.read_record(queue.done / name)
        except CorruptRecord:
            continue  # counted by the queue, never aggregated
        if record is None:
            continue
        worker = record.get("worker")
        if not isinstance(worker, str):
            continue
        row = rows.setdefault(
            worker,
            {"jobs": 0, "run_s": 0.0, "queue_wait_s": 0.0, "retries": 0,
             "last_done_s_ago": None},
        )
        row["jobs"] += 1
        row["run_s"] = round(row["run_s"] + float(record.get("run_s", 0.0)), 3)
        row["queue_wait_s"] = round(
            row["queue_wait_s"] + float(record.get("queue_wait_s", 0.0)), 3
        )
        row["retries"] += max(0, int(record.get("attempts", 1)) - 1)
        done_ago = round(now - float(record.get("completed_at", now)), 3)
        if row["last_done_s_ago"] is None or done_ago < row["last_done_s_ago"]:
            row["last_done_s_ago"] = done_ago
    return dict(sorted(rows.items()))


def _claim_rows(queue: BrokerQueue, now: float) -> list[dict[str, Any]]:
    """Live leases with their ages, oldest first."""
    rows = [
        {"job_id": job_id, **entry}
        for job_id, entry in _queue_index(queue, now).items()
        if entry["state"] == "claimed"
    ]
    rows.sort(key=lambda r: -float(r.get("lease_age_s", 0.0)))
    for row in rows:
        row.pop("state", None)
    return rows


def _store_stats(
    cache_dir: str | os.PathLike[str],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The status ``cache`` and ``traces`` objects, from one tag scan.

    Each holds its store's current tag's records and bytes and the
    records under its stale tags; the cache's stale count takes in stale
    analytic tags too.
    """
    cache = {"tag": SCHEMA_TAG, "records": 0, "size_bytes": 0, "stale_records": 0}
    traces = {"records": 0, "size_bytes": 0, "stale_records": 0}
    for info in scan_tags(cache_dir):
        stats = traces if info.tier == "trace" else cache
        if not info.current:
            stats["stale_records"] += info.records
        elif info.tier != "analytic":
            stats["records"] = info.records
            stats["size_bytes"] = info.size_bytes
    return cache, traces


def read_supervisor_state(queue: BrokerQueue) -> dict[str, Any] | None:
    """The durable supervisor state; ``None`` if absent, damaged or stale."""
    try:
        state = read_json(queue.root / "supervisor.json")
    except CorruptRecord:
        return None
    if state is None or state.get("schema") != SUPERVISOR_SCHEMA:
        return None
    return state


def build_status(
    cache_dir: str | os.PathLike[str],
    manifest_path: str | os.PathLike[str] | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """One JSON-ready snapshot of everything service mode can observe.

    The sweep section joins against ``manifest_path`` when given, else
    against the newest manifest under ``<cache-dir>/manifests/`` (the
    active sweep, in practice); ``None`` when there is no manifest. The
    supervisor section mirrors ``queue/supervisor.json`` if a supervisor
    has (ever) run against this cache dir.
    """
    now = time.time() if now is None else now
    queue = BrokerQueue(cache_dir)
    supervisor_state = read_supervisor_state(queue)
    cache, traces = _store_stats(cache_dir)
    if manifest_path is not None:
        from ..experiments.sweeps.manifest import load_manifest

        manifest = load_manifest(manifest_path)
    else:
        manifest = latest_manifest(cache_dir)
    sweep: dict[str, Any] | None = None
    if manifest is not None:
        active = 0
        if supervisor_state is not None:
            active = int(supervisor_state.get("live", 0))
        claims = sum(
            1
            for entry in _queue_index(queue, now).values()
            if entry["state"] == "claimed"
        )
        sweep = sweep_progress(
            cache_dir, manifest, active_workers=max(1, active, claims), now=now
        )
    return {
        "schema": STATUS_SCHEMA,
        "generated_at": now,
        "cache_dir": str(cache_dir),
        "engine_schema": SCHEMA_TAG,
        "queue": queue.counts(),
        "claims": _claim_rows(queue, now),
        "workers": _worker_rows(queue, now),
        "cache": cache,
        "traces": traces,
        "supervisor": supervisor_state,
        "sweep": sweep,
    }


def _fmt_duration(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_status(status: dict[str, Any]) -> str:
    """The human dashboard for one :func:`build_status` snapshot (pure)."""
    clock = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(status["generated_at"])
    )
    lines = [
        f"repro service status — {clock}",
        f"cache dir   {status['cache_dir']}",
    ]
    q = status["queue"]
    lines.append(
        f"queue       pending {q['pending']} · claimed {q['claimed']} · "
        f"done {q['done']} · failed {q['failed']}"
    )
    workers = status["workers"]
    if workers:
        for worker_id, row in workers.items():
            ago = row["last_done_s_ago"]
            ago_txt = f"{_fmt_duration(ago)} ago" if ago is not None else "-"
            lines.append(
                f"worker      {worker_id:<24s} {row['jobs']:4d} job(s)  "
                f"run {_fmt_duration(row['run_s'])}  "
                f"wait {_fmt_duration(row['queue_wait_s'])}  "
                f"retries {row['retries']}  last done {ago_txt}"
            )
    else:
        lines.append("worker      (no completed jobs yet)")
    for claim in status["claims"]:
        age = claim.get("lease_age_s")
        age_txt = _fmt_duration(age) if age is not None else "?"
        lines.append(
            f"claim       {claim['job_id']:<48s} attempt "
            f"{claim['attempts'] + 1}  lease age {age_txt}"
        )
    cache = status["cache"]
    lines.append(
        f"cache       {cache['records']} records, "
        f"{fmt_size(cache['size_bytes'])}"
        + (
            f", {cache['stale_records']} stale"
            if cache["stale_records"]
            else ""
        )
    )
    traces = status["traces"]
    lines.append(
        f"traces      {traces['records']} records, "
        f"{fmt_size(traces['size_bytes'])}"
    )
    sup = status["supervisor"]
    if sup is not None:
        lines.append(
            f"supervisor  pid {sup['pid']}: live {sup['live']} "
            f"(peak {sup['peak_live']}), spawned {sup['spawned']}, "
            f"retired {sup['retired']}, crashes {sup['crashes']}"
        )
    sweep = status["sweep"]
    if sweep is not None:
        c = sweep["counts"]
        lines.append(
            f"sweep       {sweep['sweep']} @ {sweep['scale']}: "
            f"{c['done']}/{sweep['cells']} done · {c['claimed']} claimed · "
            f"{c['pending']} pending · {c['unsubmitted']} unsubmitted · "
            f"{c['failed']} failed"
        )
        eta = sweep["eta_s"]
        if eta is None:
            lines.append("eta         (no completed-cell telemetry yet)")
        else:
            lines.append(
                f"eta         {_fmt_duration(eta)} "
                f"(remaining cost {sweep['remaining_cost']:,} instrs over "
                f"{sweep['active_workers']} worker(s))"
            )
        rho = sweep["cost_rank_corr"]
        rho_txt = "-" if rho is None else f"{rho:+.2f}"
        lines.append(
            f"cost model  rank corr {rho_txt} vs run time over "
            f"{sweep['cost_rank_cells']} done cell(s)"
        )
    return "\n".join(lines)


def watch_status(
    cache_dir: str | os.PathLike[str],
    manifest_path: str | os.PathLike[str] | None = None,
    interval: float = 2.0,
    iterations: int | None = None,
) -> int:
    """Repaint the dashboard until interrupted (one atomic write/frame)."""
    frames = 0
    try:
        while True:
            status = build_status(cache_dir, manifest_path)
            frame = render_status(status)
            # Home + clear + frame in a single write: the terminal never
            # shows a half-painted screen.
            sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
            sys.stdout.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------------
# serve: coordinator + autoscaled fleet, end to end
# ---------------------------------------------------------------------------


def serve_sweep(
    sweep: str,
    cache_dir: str | os.PathLike[str],
    scale: str | None = None,
    workload_set: str | None = None,
    options: SupervisorOptions | None = None,
    poll_seconds: float = 0.5,
    coordinator_args: Sequence[str] | None = None,
    env: dict[str, str] | None = None,
) -> int:
    """Run a sweep under supervision; returns the coordinator's exit code.

    The coordinator (``python -m repro.experiments.sweeps run <sweep>
    --backend broker``) runs as a subprocess with stealing disabled
    (unless ``REPRO_BROKER_STEAL`` is set explicitly), so the autoscaled
    fleet does the actual work. When it exits, the fleet is stopped and
    the final supervisor state persisted: by then the coordinator has
    written every result to the cache, so no worker holds anything the
    sweep still needs. Results are bit-identical to hand-started
    workers: supervision decides fleet size only.
    """
    from ..experiments.sweeps import get_sweep

    get_sweep(sweep)  # unknown names fail here, before anything spawns
    opts = options or supervisor_options()
    supervisor = Supervisor(cache_dir, opts, env=env)
    cmd = [
        sys.executable,
        "-m",
        "repro.experiments.sweeps",
        "run",
        sweep,
        "--cache-dir",
        str(cache_dir),
        "--backend",
        "broker",
    ]
    if scale:
        cmd += ["--scale", scale]
    if workload_set:
        cmd += ["--workload-set", workload_set]
    if coordinator_args:
        cmd += list(coordinator_args)
    started = time.time()
    steal = None if read_env("REPRO_BROKER_STEAL") else "0"
    with exported("REPRO_BROKER_STEAL", steal):
        coordinator: subprocess.Popen[bytes] = subprocess.Popen(cmd, env=env)
    print(
        f"[serve {sweep}: coordinator pid {coordinator.pid}, fleet "
        f"<= {opts.max_workers} worker(s)]",
        flush=True,
    )
    try:
        while coordinator.poll() is None:
            supervisor.tick()
            time.sleep(poll_seconds)
    except BaseException:
        # Ctrl-C (or any supervision failure) must not orphan processes.
        coordinator.terminate()
        supervisor.stop()
        coordinator.wait(timeout=30)
        raise
    rc = int(coordinator.returncode)
    supervisor.stop()
    elapsed = time.time() - started
    print(
        f"[serve {sweep}: coordinator rc={rc}, peak {supervisor.peak_live} "
        f"worker(s), {supervisor.spawned} spawned, {supervisor.retired} "
        f"retired, {supervisor.crashes} crash(es), {elapsed:.1f}s]",
        flush=True,
    )
    return rc
