"""Fault-injection suite: SIGKILLed workers and warehouse refreshes lose nothing.

Every test here kills a *real* subprocess — a broker worker or a
warehouse refresh — either deterministically (``REPRO_FAULTPOINTS``) or
with an external SIGKILL, then asserts the system's crash contracts:

* a killed worker's job is recovered and executed **exactly once**, and
  the recovered result is bit-identical to an undisturbed run;
* a killed refresh leaves the previous warehouse snapshot readable and
  contributes nothing, and the next refresh converges.

A malformed ``REPRO_FAULTPOINTS`` spec is rejected, never half-applied.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import faultinject
from repro.core.mechanisms import make_config
from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.runtime import SimJob, execute_job, run_worker
from repro.runtime.broker import BrokerQueue
from repro.runtime.cache import ResultCache
from repro.runtime.faultpoints import FAULT_POINTS, _parse, maybe_fault
from repro.workloads.workload import reset_trace_store

WL = "streaming"
SCALE = 0.05

#: SIGKILL'd subprocesses report a negative signal return code.
KILLED = -signal.SIGKILL


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


def _backdate(path, seconds: float) -> None:
    past = time.time() - seconds
    os.utime(path, (past, past))


def _drain_in_process(cache_dir) -> int:
    """A healthy rescuer worker, run in-process for determinism."""
    return run_worker(
        cache_dir, worker_id="fi-rescue", drain=True, max_idle=0.2, poll_seconds=0.05
    )


# ---------------------------------------------------------------------------
# Worker crashes mid-lease
# ---------------------------------------------------------------------------


class TestWorkerKilledMidLease:
    def test_deterministic_kill_after_claim_recovers_exactly_once(self, tmp_path):
        """The worker dies the instant it owns the lease: nothing ran, the
        claim file is orphaned, and recovery must hand the job to someone
        else exactly once with a bumped attempt count."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _job()
        job_id = queue.enqueue(job)
        proc = faultinject.spawn_worker(
            tmp_path, worker_id="fi-victim", faultpoints="worker-claimed:1"
        )
        assert faultinject.wait_exit(proc) == KILLED
        counts = queue.counts()
        assert counts["claimed"] == 1 and counts["done"] == 0
        # The lease is still fresh — a live worker must never be robbed.
        assert queue.recover_expired() == 0
        _backdate(next(queue.claimed.glob("*.json")), seconds=60)
        assert queue.recover_expired() == 1
        assert _drain_in_process(tmp_path) == 1
        record = queue.read_done(job_id)
        assert record is not None
        assert record["attempts"] == 2  # the victim's claim counted
        assert record["result"]["raw"] == execute_job(job).raw
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}

    def test_external_sigkill_mid_flight_loses_nothing(self, tmp_path):
        """A worker killed from outside at an arbitrary point (claiming,
        building the workload, simulating, or just done) must leave the
        queue recoverable to exactly one correct done record."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _job()
        job_id = queue.enqueue(job)
        proc = faultinject.spawn_worker(tmp_path, worker_id="fi-victim")
        faultinject.wait_for(
            lambda: queue.counts()["claimed"] >= 1 or queue.counts()["done"] >= 1,
            message="worker to claim the job",
        )
        faultinject.sigkill(proc)
        assert faultinject.wait_exit(proc) == KILLED
        # Recover whatever state the kill left: an expired lease requeues,
        # a completed-but-unreleased claim is deleted as a leftover.
        for path in queue.claimed.glob("*.json"):
            _backdate(path, seconds=60)
        queue.recover_expired()
        _drain_in_process(tmp_path)
        record = queue.read_done(job_id)
        assert record is not None
        assert record["result"]["raw"] == execute_job(job).raw
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}

    def test_surviving_worker_finishes_a_killed_peers_batch(self, tmp_path):
        """Two real workers; one dies holding a lease. The survivor must
        recover the orphan via the normal lease path and complete every
        job exactly once — no duplicates, no terminal failures."""
        queue = BrokerQueue(tmp_path, lease_seconds=2)
        first = _job()
        ids = [queue.enqueue(first)]
        victim = faultinject.spawn_worker(
            tmp_path,
            worker_id="fi-victim",
            faultpoints="worker-claimed:1",
            lease_seconds=2,
        )
        assert faultinject.wait_exit(victim) == KILLED
        assert queue.counts()["claimed"] == 1
        ids += [queue.enqueue(_job(llc)) for llc in (15, 45)]
        survivor = faultinject.spawn_worker(
            tmp_path,
            worker_id="fi-survivor",
            drain=True,
            max_idle=10,
            lease_seconds=2,
        )
        assert faultinject.wait_exit(survivor) == 0
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 3, "failed": 0}
        for job_id in ids:
            record = queue.read_done(job_id)
            assert record is not None
            assert record["worker"] == "fi-survivor"
        # The orphaned job carries the victim's attempt; the rest are clean.
        assert sorted(
            queue.read_done(job_id)["attempts"] for job_id in ids
        ) == [1, 1, 2]


class TestDrainWaitsOutPeerLeases:
    def test_drain_worker_outlives_a_dead_peers_lease(self, tmp_path):
        """A draining worker whose max_idle is shorter than the lease must
        not exit while a crashed peer still holds a claim: the lease will
        expire, the job requeue, and this worker must be the one to run
        it. Before the fix the idle clock conflated "queue empty" with
        "all jobs leased by peers" and the last drain worker exited with
        the job stranded in claimed/."""
        queue = BrokerQueue(tmp_path, lease_seconds=3)
        job = _job()
        job_id = queue.enqueue(job)
        victim = faultinject.spawn_worker(
            tmp_path,
            worker_id="fi-victim",
            faultpoints="worker-claimed:1",
            lease_seconds=3,
        )
        assert faultinject.wait_exit(victim) == KILLED
        assert queue.counts()["claimed"] == 1
        rescuer = faultinject.spawn_worker(
            tmp_path,
            worker_id="fi-rescuer",
            drain=True,
            max_idle=1,  # far shorter than the 3 s lease
            lease_seconds=3,
        )
        assert faultinject.wait_exit(rescuer) == 0
        record = queue.read_done(job_id)
        assert record is not None
        assert record["worker"] == "fi-rescuer"
        assert record["attempts"] == 2  # the victim's claim counted
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}

    def test_drain_exit_is_capped_when_a_live_peer_grinds_on(self, tmp_path):
        """The lease-wait extension is bounded: with a healthy peer
        heartbeating its claim forever, a draining worker still exits
        after DRAIN_LEASE_WAIT_FACTOR leases instead of pinning."""
        from repro.runtime.broker import DRAIN_LEASE_WAIT_FACTOR

        queue = BrokerQueue(tmp_path, lease_seconds=0.4)
        queue.enqueue(_job())
        claimed = queue.claim("fi-peer")  # a peer holds this, "alive"
        stop = False

        def _beat():
            while not stop:
                queue.heartbeat(claimed)
                time.sleep(0.05)

        import threading

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        started = time.time()
        completed = run_worker(
            tmp_path,
            worker_id="fi-drain",
            drain=True,
            max_idle=0.2,
            poll_seconds=0.05,
            lease_seconds=0.4,
        )
        elapsed = time.time() - started
        stop = True
        beater.join()
        assert completed == 0
        # Waited past plain max_idle, but no longer than the cap (plus
        # generous scheduling slack).
        assert elapsed >= DRAIN_LEASE_WAIT_FACTOR * 0.4 - 0.05
        assert elapsed < 30


# ---------------------------------------------------------------------------
# Cache records shared by the warehouse-refresh crash tests
# ---------------------------------------------------------------------------


def _digest(i: int) -> str:
    return f"{i:016x}" + "0" * 48


def _populate(cache: ResultCache, start: int, count: int, workload: str = "wl"):
    for i in range(start, start + count):
        cache.put(
            workload,
            "0.25",
            _digest(i),
            SimulationResult(workload, "none", {"cycles": float(i + 1)}),
        )


def _assert_all_readable(cache_dir, count: int, workload: str = "wl"):
    fresh = ResultCache(cache_dir)
    for i in range(count):
        result = fresh.get(workload, "0.25", _digest(i))
        assert result is not None, f"record {i} lost"
        assert result.raw == {"cycles": float(i + 1)}


class TestWarehouseRefreshKilledMidConsolidation:
    """SIGKILL inside the warehouse rebuild transaction.

    The contract (``repro.warehouse.core``): the whole refresh — the
    delete of every old row and the insert of every new one — commits
    atomically, so a refresh killed at any instant (a) leaves the
    previous snapshot fully readable and (b) changes *zero* rows, and
    the next refresh converges.
    """

    def _status(self, cache_dir):
        from repro.warehouse import connect, read_status

        conn = connect(cache_dir)
        try:
            return read_status(conn)
        finally:
            conn.close()

    def _integrity_ok(self, cache_dir) -> bool:
        import sqlite3

        from repro.warehouse import db_path

        conn = sqlite3.connect(db_path(cache_dir))
        try:
            row = conn.execute("PRAGMA integrity_check").fetchone()
            return row is not None and row[0] == "ok"
        finally:
            conn.close()

    def test_first_refresh_killed_leaves_empty_snapshot_then_converges(
        self, tmp_path
    ):
        from repro.warehouse import refresh_warehouse

        cache = ResultCache(tmp_path)
        _populate(cache, 0, 40)
        proc = faultinject.spawn_warehouse_refresh(
            tmp_path, faultpoints="warehouse-refresh:7"
        )
        assert faultinject.wait_exit(proc) == KILLED
        # The snapshot survives the kill readable — and empty: the dead
        # refresh committed none of the rows it inserted.
        assert self._integrity_ok(tmp_path)
        assert self._status(tmp_path).cells == 0
        stats = refresh_warehouse(tmp_path)
        assert (stats.inserted, stats.changes) == (40, 40)
        assert self._status(tmp_path).cells == 40
        assert refresh_warehouse(tmp_path).changes == 0

    def test_kill_mid_refresh_preserves_previous_snapshot(self, tmp_path):
        from repro.warehouse import refresh_warehouse

        cache = ResultCache(tmp_path)
        _populate(cache, 0, 30)
        refresh_warehouse(tmp_path)
        _populate(cache, 30, 10)  # new results since the last consolidation
        proc = faultinject.spawn_warehouse_refresh(
            tmp_path, faultpoints="warehouse-refresh:4"
        )
        assert faultinject.wait_exit(proc) == KILLED
        assert self._integrity_ok(tmp_path)
        # The pre-kill snapshot: the dead refresh had deleted all 30 rows
        # and re-inserted 3 when it died, and none of that is visible.
        assert self._status(tmp_path).cells == 30
        stats = refresh_warehouse(tmp_path)
        assert (stats.inserted, stats.unchanged) == (10, 30)
        assert self._status(tmp_path).cells == 40
        # Every record is still readable through the cache as well.
        _assert_all_readable(tmp_path, 40)


# ---------------------------------------------------------------------------
# REPRO_FAULTPOINTS spec validation
# ---------------------------------------------------------------------------


class TestFaultpointSpec:
    def test_valid_spec_parses(self):
        assert _parse("worker-claimed:3, warehouse-refresh") == {
            "worker-claimed": 3,
            "warehouse-refresh": 1,
        }

    def test_every_wired_point_is_accepted(self):
        for point in FAULT_POINTS:
            assert _parse(f"{point}:2") == {point: 2}

    @pytest.mark.parametrize("spec", ["shard-entry:10", "worker-claimd:1"])
    def test_unknown_point_is_rejected(self, spec):
        with pytest.raises(ConfigError, match="unknown fault point") as err:
            _parse(spec)
        assert repr(spec) in str(err.value)

    @pytest.mark.parametrize(
        "spec",
        [
            "worker-claimed:x",
            "worker-claimed:0",
            "worker-claimed:-2",
            "worker-claimed:1.5",
            "worker-claimed:",
        ],
    )
    def test_bad_count_is_rejected(self, spec):
        with pytest.raises(ConfigError, match="not a positive integer") as err:
            _parse(spec)
        assert repr(spec) in str(err.value)

    def test_maybe_fault_rejects_a_bad_spec(self, monkeypatch):
        # The spec never names the point passed, so a lenient parser
        # returns instead of killing the test process.
        monkeypatch.setenv("REPRO_FAULTPOINTS", "shard-entry:1")
        with pytest.raises(ConfigError, match="REPRO_FAULTPOINTS"):
            maybe_fault("worker-claimed")
