"""Supervised service mode: options, scaling policy, fleet, progress, ETA.

Fleet-lifecycle tests drive a real :class:`Supervisor` over *stub* worker
commands (sleep/exit/crash one-liners) so spawn/reap/restart mechanics run
against actual subprocesses without paying for engine imports; the
bit-identity test at the bottom runs the real ``python -m repro.runtime
worker`` fleet against real jobs and compares its merged results
bit-for-bit with a hand-run worker's.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any

import pytest

import faultinject
from repro.core.mechanisms import make_config
from repro.errors import ConfigError
from repro.runtime import SimJob, estimate_job_cost
from repro.runtime import supervisor as supervisor_mod
from repro.runtime.broker import BROKER_SCHEMA, BrokerQueue, run_worker
from repro.runtime.cache import SCHEMA_TAG
from repro.runtime.supervisor import (
    BACKOFF_CAP_SECONDS,
    CELL_STATES,
    STATUS_SCHEMA,
    SUPERVISOR_SCHEMA,
    Supervisor,
    SupervisorOptions,
    WorkerProcess,
    _spearman,
    build_status,
    cell_job_id,
    desired_workers,
    latest_manifest,
    render_status,
    supervisor_options,
    sweep_progress,
)
from repro.runtime.atomicio import atomic_write_json
from repro.workloads.workload import reset_trace_store

WL = "streaming"
SCALE = 0.05

#: Stub fleet members: lifecycle without engine imports.
SLEEPER = [sys.executable, "-c", "import time; time.sleep(60)"]
CRASHER = [sys.executable, "-c", "import sys; sys.exit(3)"]
QUITTER = [sys.executable, "-c", "pass"]


@pytest.fixture(autouse=True)
def _restore_trace_store():
    """In-process run_worker pins the trace store; undo it per test."""
    yield
    reset_trace_store()


def _job(llc: int | None = None) -> SimJob:
    cfg = make_config("none")
    if llc is not None:
        cfg = cfg.with_llc_latency(llc)
    return SimJob(WL, cfg, SCALE)


def _plant_pending(queue: BrokerQueue, n: int, cost: int = 100) -> None:
    """Fake backlog files — the scaling policy only reads filenames."""
    queue.pending.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        name = f"fake{i}__s1__{i:016x}__w{cost}__a0.json"
        (queue.pending / name).write_text("{}")


def _supervisor(tmp_path, command, **opts) -> Supervisor:
    options = supervisor_options(**opts)
    return Supervisor(tmp_path, options, worker_command=command)


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------


class TestSupervisorOptions:
    def test_defaults(self):
        assert supervisor_options().max_workers == 4

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPERVISOR_MAX", "8")
        assert supervisor_options().max_workers == 8

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPERVISOR_MAX", "8")
        assert supervisor_options(max_workers=2).max_workers == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"max_workers": -1},
            {"env": "0"},
            {"env": "-2"},
            {"env": "2.5"},
            {"env": "four"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs, monkeypatch):
        """A ceiling below one or not an integer fails, by arg or by env."""
        kwargs = dict(kwargs)
        if "env" in kwargs:
            monkeypatch.setenv("REPRO_SUPERVISOR_MAX", kwargs.pop("env"))
        with pytest.raises(ConfigError):
            supervisor_options(**kwargs)

    def test_env_zero_max_workers_reaches_validation(self, monkeypatch):
        # An explicit 0 must reach validation, not fall back to the default.
        monkeypatch.setenv("REPRO_SUPERVISOR_MAX", "0")
        with pytest.raises(ConfigError, match="max_workers must be >= 1"):
            supervisor_options()

    def test_malformed_env_value_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SUPERVISOR_MAX", "lots")
        with pytest.raises(ConfigError) as err:
            supervisor_options()
        assert "REPRO_SUPERVISOR_MAX" in str(err.value)

    @pytest.mark.parametrize("max_workers", [0, -2, 2.5, None])
    def test_direct_construction_checks_the_ceiling(self, max_workers):
        """Building the dataclass directly, as a benchmark harness does,
        must not bypass the bound: a ceiling of -2 would make
        desired_workers return -2 and the fleet never spawn."""
        with pytest.raises(ConfigError, match="max_workers"):
            SupervisorOptions(max_workers=max_workers)
        assert SupervisorOptions(max_workers=1).max_workers == 1


# ---------------------------------------------------------------------------
# Scaling policy
# ---------------------------------------------------------------------------


class TestScalingPolicy:
    def test_empty_backlog_sits_at_the_floor(self):
        assert desired_workers([], supervisor_options()) == 0

    def test_one_giant_job_caps_useful_parallelism(self):
        # Longest-first: the giant IS the critical path; the three tiny
        # jobs fit into one extra worker's time many times over.
        opts = supervisor_options(max_workers=8)
        assert desired_workers([1000, 1, 1, 1], opts) == 2

    def test_uniform_backlog_wants_one_worker_per_job(self):
        opts = supervisor_options(max_workers=8)
        assert desired_workers([10] * 6, opts) == 6

    def test_ceiling_clamps(self):
        opts = supervisor_options(max_workers=4)
        assert desired_workers([10] * 100, opts) == 4

    def test_unknown_costs_fall_back_to_backlog_size(self):
        opts = supervisor_options(max_workers=8)
        assert desired_workers([None, None, None], opts) == 3

    def test_unknown_costs_billed_as_longest(self):
        # One known cost 100 + one unknown (assumed 100): total 200,
        # longest 100 -> two workers.
        opts = supervisor_options(max_workers=8)
        assert desired_workers([100, None], opts) == 2


# ---------------------------------------------------------------------------
# Fleet lifecycle (real subprocesses, stub commands)
# ---------------------------------------------------------------------------


def _all_accounted_for(sup: Supervisor) -> bool:
    """Every spawned worker is live, retired, crashed or stopped."""
    stops = sum(1 for e in sup.timeline if e["event"] == "stop")
    return sup.spawned == sup.live + sup.retired + sup.crashes + stops


class _StubProc:
    """A ``Popen`` stand-in that exits (rc 1) at its ``exit_at``-th poll."""

    def __init__(self, pid: int, exit_at: int):
        self.pid = pid
        self.returncode: int | None = None
        self._polls = 0
        self._exit_at = exit_at

    def poll(self) -> int | None:
        self._polls += 1
        if self.returncode is None and self._polls >= self._exit_at:
            self.returncode = 1
        return self.returncode


class TestFleetLifecycle:
    def test_scales_up_to_the_backlog_and_stops_clean(self, tmp_path):
        sup = _supervisor(tmp_path, SLEEPER, max_workers=3)
        _plant_pending(sup.queue, 3)
        sup.tick()
        try:
            assert sup.live == 3
            assert sup.spawned == 3
            assert sup.peak_live == 3
            state = json.loads(sup.state_path.read_text())
            assert state["schema"] == SUPERVISOR_SCHEMA
            assert state["live"] == 3
            assert len(state["workers"]) == 3
            assert [e["event"] for e in state["timeline"]].count("spawn") == 3
        finally:
            sup.stop()
        assert sup.live == 0
        assert sup.crashes == 0  # terminated workers are not crashes
        assert _all_accounted_for(sup)
        state = json.loads(sup.state_path.read_text())
        assert state["live"] == 0

    def test_clean_exit_is_a_retirement_not_a_crash(self, tmp_path):
        sup = _supervisor(tmp_path, QUITTER, max_workers=1)
        _plant_pending(sup.queue, 1)
        sup.tick()
        for path in sup.queue.pending.iterdir():
            path.unlink()  # the backlog is gone: nothing to replace it for
        faultinject.wait_for(
            lambda: sup.workers[0].proc.poll() is not None,
            message="stub worker exit",
        )
        sup.tick()
        assert sup.live == 0
        assert sup.retired == 1
        assert sup.crashes == 0
        assert _all_accounted_for(sup)

    def test_crash_restart_waits_out_a_doubling_backoff(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_SECONDS", 60.0)
        sup = _supervisor(tmp_path, CRASHER, max_workers=1)
        _plant_pending(sup.queue, 1)
        sup.tick()
        assert sup.spawned == 1
        faultinject.wait_for(
            lambda: sup.workers[0].proc.poll() is not None,
            message="stub crash",
        )
        sup.tick()
        assert sup.crashes == 1
        assert sup.live == 0
        # The backlog still demands a worker, but the backoff gate holds.
        sup.tick()
        assert sup.spawned == 1
        # Releasing the gate restarts the worker: crash-restart is just
        # scale-up seeing the still-pending job once the backoff expires.
        sup._next_spawn_at = 0.0
        sup.tick()
        assert sup.spawned == 2
        faultinject.wait_for(
            lambda: not sup.workers or sup.workers[0].proc.poll() is not None,
            message="second stub crash",
        )
        sup.tick()
        assert sup.crashes == 2
        assert _all_accounted_for(sup)
        backoffs = [
            e["backoff_s"]
            for e in sup.timeline
            if e["event"] == "crash"
        ]
        assert backoffs == [
            min(BACKOFF_CAP_SECONDS, 60.0),
            min(BACKOFF_CAP_SECONDS, 120.0),
        ]

    def test_worker_exiting_mid_reap_is_still_counted(self, tmp_path):
        """One poll per worker per reap: a worker that exits between two
        polls must not drop out of the fleet uncounted."""
        sup = _supervisor(tmp_path, SLEEPER, max_workers=2)
        for i, exit_at in enumerate((1, 2)):
            proc: Any = _StubProc(pid=-(i + 1), exit_at=exit_at)
            sup.workers.append(WorkerProcess(f"stub{i}", proc, time.time()))
            sup.spawned += 1
        sup.reap()  # stub0 is already dead; stub1 dies at its next poll
        sup.reap()
        assert sup.live == 0
        assert sup.crashes == 2
        assert [e["event"] for e in sup.timeline] == ["crash", "crash"]
        assert _all_accounted_for(sup)


# ---------------------------------------------------------------------------
# Sweep progress + ETA
# ---------------------------------------------------------------------------


def _write_manifest(cache_dir):
    from repro.experiments.sweeps import get_sweep
    from repro.experiments.sweeps.manifest import write_manifest

    return write_manifest(cache_dir, get_sweep("smoke"), "quick", "paper")


def _fake_done(queue: BrokerQueue, job_id: str, run_s: float = 2.0) -> None:
    atomic_write_json(
        queue.done / f"{job_id}.json",
        {
            "schema": BROKER_SCHEMA,
            "engine_schema": SCHEMA_TAG,
            "job_id": job_id,
            "worker": "fake-worker",
            "attempts": 1,
            "queue_wait_s": 0.0,
            "age_s": 0.0,
            "run_s": run_s,
            "completed_at": time.time(),
            "result": {},
        },
    )


class TestSweepProgress:
    def test_cell_job_ids_match_the_broker_grammar(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        cell = manifest.cells[0]
        assert cell_job_id(cell) == BrokerQueue.job_id(cell.job())

    def test_cell_states_join_queue_and_cache(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        total = len(manifest.cells)

        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["unsubmitted"] == total
        assert progress["eta_s"] is None  # no telemetry yet — honest
        assert progress["remaining_cost"] > 0

        tracked = cell_job_id(manifest.cells[0])
        seen = [self._state_of(progress, tracked)]

        queue.enqueue(manifest.cells[0].job())
        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["pending"] == 1
        assert progress["counts"]["unsubmitted"] == total - 1
        seen.append(self._state_of(progress, tracked))

        claimed = queue.claim("t")
        assert claimed is not None and claimed.job_id == tracked
        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["claimed"] == 1
        row = next(
            c for c in progress["cell_states"] if c["job_id"] == tracked
        )
        assert row["lease_age_s"] is not None and row["lease_age_s"] >= 0
        seen.append(self._state_of(progress, tracked))

        claimed.path.unlink()
        _fake_done(queue, tracked, run_s=2.0)
        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["done"] == 1
        seen.append(self._state_of(progress, tracked))

        # Monotonic: the tracked cell only ever moved rightward.
        indices = [CELL_STATES.index(s) for s in seen]
        assert indices == sorted(indices)

    @staticmethod
    def _state_of(progress, job_id: str) -> str:
        return next(
            c["state"] for c in progress["cell_states"] if c["job_id"] == job_id
        )

    def test_eta_calibrates_from_run_telemetry(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        done = manifest.cells[0]
        _fake_done(queue, cell_job_id(done), run_s=3.0)
        progress = sweep_progress(tmp_path, manifest, active_workers=2)
        spc = progress["secs_per_cost"]
        assert spc is not None and spc > 0
        assert progress["eta_s"] == pytest.approx(
            progress["remaining_cost"] * spc / 2, rel=1e-6
        )

    def test_eta_is_zero_when_nothing_is_runnable(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        for cell in manifest.cells:
            _fake_done(queue, cell_job_id(cell))
        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["done"] == len(manifest.cells)
        assert progress["eta_s"] == 0.0

    def test_terminal_failures_read_as_failed(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        job_id = cell_job_id(manifest.cells[0])
        queue._fail_terminal(job_id, 3, "boom")
        progress = sweep_progress(tmp_path, manifest)
        assert progress["counts"]["failed"] == 1
        row = next(
            c for c in progress["cell_states"] if c["job_id"] == job_id
        )
        assert row["attempts"] == 3

    def test_cost_rank_corr_is_none_below_three_done_cells(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        progress = sweep_progress(tmp_path, manifest)
        assert progress["cost_rank_cells"] == 0
        assert progress["cost_rank_corr"] is None
        for cell in manifest.cells[:2]:
            _fake_done(queue, cell_job_id(cell))
        progress = sweep_progress(tmp_path, manifest)
        assert progress["cost_rank_cells"] == 2
        assert progress["cost_rank_corr"] is None

    @pytest.mark.parametrize("agrees", [True, False])
    def test_cost_rank_corr_measures_the_model(self, tmp_path, agrees):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        by_cost: dict[int, list] = {}
        for cell in manifest.cells:
            by_cost.setdefault(estimate_job_cost(cell.job()), []).append(cell)
        cheap, dear = sorted(by_cost)  # smoke @ quick: two trace lengths
        planted = by_cost[cheap][:2] + by_cost[dear][:2]
        run_times = [1.0, 1.1, 5.0, 5.1] if agrees else [5.1, 5.0, 1.1, 1.0]
        for cell, run_s in zip(planted, run_times):
            _fake_done(queue, cell_job_id(cell), run_s=run_s)
        progress = sweep_progress(tmp_path, manifest)
        assert progress["cost_rank_cells"] == 4
        # Cost ranks (0.5, 0.5, 2.5, 2.5) against run_s ranks 0..3.
        expected = round(4 / 20**0.5, 4)
        assert progress["cost_rank_corr"] == (expected if agrees else -expected)

    def test_latest_manifest_picks_the_newest(self, tmp_path):
        assert latest_manifest(tmp_path) is None
        manifest = _write_manifest(tmp_path)
        found = latest_manifest(tmp_path)
        assert found is not None
        assert found.spec_digest == manifest.spec_digest


class TestSpearman:
    def test_perfect_agreement_and_reversal(self):
        assert _spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert _spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_ties_take_average_ranks(self):
        assert _spearman([1, 1, 2], [1, 2, 3]) == round(0.75**0.5, 4)

    def test_undefined_is_none(self):
        assert _spearman([1], [2]) is None
        assert _spearman([5, 5, 5], [1, 2, 3]) is None


# ---------------------------------------------------------------------------
# Status snapshot + rendering
# ---------------------------------------------------------------------------


class TestStatus:
    def test_empty_cache_dir_snapshot(self, tmp_path):
        status = build_status(tmp_path)
        assert status["schema"] == STATUS_SCHEMA
        assert status["queue"] == {
            "pending": 0,
            "claimed": 0,
            "done": 0,
            "failed": 0,
        }
        assert status["workers"] == {}
        assert status["claims"] == []
        assert status["supervisor"] is None
        assert status["sweep"] is None
        json.dumps(status)  # --json must always serialize

    def test_snapshot_aggregates_workers_and_sweep(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        for cell in manifest.cells[:2]:
            _fake_done(queue, cell_job_id(cell), run_s=1.5)
        sup = Supervisor(tmp_path, supervisor_options())
        sup.write_state()
        status = build_status(tmp_path)
        assert status["workers"]["fake-worker"]["jobs"] == 2
        assert status["workers"]["fake-worker"]["run_s"] == pytest.approx(3.0)
        assert status["supervisor"]["schema"] == SUPERVISOR_SCHEMA
        assert status["sweep"]["counts"]["done"] == 2
        json.dumps(status)

    def test_render_shows_the_measured_rank_corr(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        cells = sorted(manifest.cells, key=lambda c: estimate_job_cost(c.job()))
        for i, cell in enumerate([cells[0], cells[1], cells[-1]]):
            _fake_done(queue, cell_job_id(cell), run_s=1.0 + i)
        status = build_status(tmp_path)
        rho = status["sweep"]["cost_rank_corr"]
        assert rho is not None and rho > 0
        assert f"rank corr {rho:+.2f} vs run time over 3 done cell(s)" in (
            render_status(status)
        )

    def test_render_is_pure_text(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        queue = BrokerQueue(tmp_path)
        queue._ensure_dirs()
        _fake_done(queue, cell_job_id(manifest.cells[0]))
        text = render_status(build_status(tmp_path))
        assert "repro service status" in text
        assert "fake-worker" in text
        assert "sweep       smoke @ quick" in text
        assert "cost model  rank corr - vs run time over 1 done cell(s)" in text
        assert "\x1b" not in text  # escapes belong to the watch loop only


# ---------------------------------------------------------------------------
# Bit-identity: supervised fleet vs hand-run worker (acceptance)
# ---------------------------------------------------------------------------


def _result_payloads(queue: BrokerQueue) -> dict[str, str]:
    """job id → canonical JSON of the result payload (telemetry excluded)."""
    payloads = {}
    for path in sorted(queue.done.glob("*.json")):
        record = json.loads(path.read_text())
        payload = record.get("results", record.get("result"))
        payloads[record["job_id"]] = json.dumps(payload, sort_keys=True)
    return payloads


class TestBitIdentity:
    def test_supervised_fleet_matches_hand_run_worker(
        self, tmp_path, monkeypatch
    ):
        jobs = [_job(llc) for llc in (20, 40, 60, 80)]

        # Hand-run: one worker drained in-process, the PR-4 way.
        hand_dir = tmp_path / "hand"
        hand_queue = BrokerQueue(hand_dir)
        for job in jobs:
            hand_queue.enqueue(job)
        run_worker(hand_dir, worker_id="hand", drain=True, max_idle=0.2)
        reset_trace_store()

        # Supervised: a real autoscaled subprocess fleet.
        serve_dir = tmp_path / "served"
        # Short idle timeout so the workers' own --drain --max-idle
        # retirement is what winds the fleet down, not stop().
        monkeypatch.setattr(supervisor_mod, "WORKER_IDLE_SECONDS", 0.5)
        options = supervisor_options(max_workers=2)
        sup = Supervisor(
            serve_dir, options, env=faultinject._subprocess_env()
        )
        for job in jobs:
            sup.queue.enqueue(job)
        try:
            faultinject.wait_for(
                lambda: (sup.tick() or True)
                and sup.queue.counts()["done"] == len(jobs),
                timeout=120.0,
                interval=0.2,
                message="supervised fleet to drain the queue",
            )
            assert sup.peak_live >= 2  # uniform backlog autoscaled up
            # Idle workers retire themselves: scale-down to zero.
            faultinject.wait_for(
                lambda: (sup.tick() or True) and sup.live == 0,
                timeout=60.0,
                interval=0.2,
                message="fleet wind-down",
            )
        finally:
            sup.stop()
        assert sup.retired == sup.spawned  # every worker retired itself
        assert sup.crashes == 0
        assert _all_accounted_for(sup)

        hand = _result_payloads(hand_queue)
        served = _result_payloads(sup.queue)
        assert set(hand) == set(served)
        assert hand == served  # bit-identical merged results

        # The done-record telemetry names only supervised worker ids.
        for path in sup.queue.done.glob("*.json"):
            assert json.loads(path.read_text())["worker"].startswith("sv")


class TestServeEndToEnd:
    def test_serve_runs_a_sweep_and_winds_the_fleet_down(self, tmp_path):
        from repro.experiments.sweeps import get_sweep
        from repro.runtime.supervisor import serve_sweep

        options = supervisor_options(max_workers=4)
        rc = serve_sweep(
            "smoke",
            tmp_path,
            scale="quick",
            options=options,
            env=faultinject._subprocess_env(),
        )
        assert rc == 0

        queue = BrokerQueue(tmp_path)
        counts = queue.counts()
        total = len(
            sweep_progress(
                tmp_path, latest_manifest(tmp_path)
            )["cell_states"]
        )
        assert counts["done"] == total > 0
        assert counts["pending"] == 0
        assert counts["claimed"] == 0
        assert counts["failed"] == 0

        state = json.loads((queue.root / "supervisor.json").read_text())
        assert state["peak_live"] >= 2  # the backlog autoscaled the fleet up
        assert state["live"] == 0  # ...and serve wound it back down
        assert state["crashes"] == 0
        stops = sum(1 for e in state["timeline"] if e["event"] == "stop")
        assert state["spawned"] == state["retired"] + stops

        # Every cell the manifest names reads as done in the final status.
        get_sweep("smoke")  # sanity: the sweep exists under this name
        status = build_status(tmp_path)
        assert status["sweep"]["counts"]["done"] == total
        assert status["sweep"]["eta_s"] == 0.0
