"""Executor backends: resolution, equivalence, and broker fault paths."""

from __future__ import annotations

import math
import os
import threading
import time

import pytest

from repro.core.mechanisms import MECHANISMS, make_config
from repro.envopts import resolve
from repro.errors import BrokerError, ConfigError
from repro.runtime import (
    BACKEND_NAMES,
    ExperimentRuntime,
    ProcessPoolBackend,
    SerialBackend,
    SimJob,
    canonicalize,
    make_backend,
    run_worker,
)
from repro.runtime.broker import (
    BROKER_SCHEMA,
    BrokerBackend,
    BrokerQueue,
    broker_env_options,
    config_from_canonical,
    job_from_spec,
    job_spec,
)

from repro.workloads.workload import reset_trace_store

#: Tiny but real workload for executor tests.
WL = "streaming"
SCALE = 0.05


@pytest.fixture(autouse=True)
def _restore_trace_store():
    """run_worker pins the process-wide trace store; undo it per test."""
    yield
    reset_trace_store()


def _jobs(*configs, workload=WL, scale=SCALE):
    return [SimJob(workload, cfg, scale) for cfg in configs]


def _backdate(path, seconds: float) -> None:
    """Age a file's mtime so its lease reads as expired."""
    past = time.time() - seconds
    os.utime(path, (past, past))


# ---------------------------------------------------------------------------
# Backend name resolution
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_none_means_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve("REPRO_BACKEND", None) == "auto"

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_registered_name_resolves(self, name):
        assert resolve("REPRO_BACKEND", name) == name

    def test_stale_name_lists_valid_backends(self):
        with pytest.raises(ConfigError) as err:
            resolve("REPRO_BACKEND", "slurm")
        message = str(err.value)
        for name in BACKEND_NAMES:
            assert name in message
        assert "REPRO_BACKEND" in message

    def test_auto_picks_pool_iff_parallel(self):
        assert isinstance(make_backend("auto", jobs=1, cache_dir=None), SerialBackend)
        assert isinstance(
            make_backend("auto", jobs=4, cache_dir=None), ProcessPoolBackend
        )

    def test_broker_requires_cache_dir(self):
        with pytest.raises(ConfigError) as err:
            make_backend("broker", jobs=1, cache_dir=None)
        assert "cache" in str(err.value).lower()

    def test_broker_resolves_with_cache_dir(self, tmp_path):
        backend = make_backend("broker", jobs=1, cache_dir=tmp_path)
        assert backend.name == "broker"

    def test_broker_without_cache_dir_fails_at_configuration_time(self, monkeypatch):
        """Selecting the broker with no cache dir must error up front, not
        minutes later at the first cache-miss batch."""
        from repro.runtime import resolve_options

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(ConfigError, match="cache director"):
            resolve_options(backend="broker")


# ---------------------------------------------------------------------------
# Job spec round-trip (what travels through the queue files)
# ---------------------------------------------------------------------------


class TestJobSpecRoundTrip:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_config_round_trips_for_every_mechanism(self, mechanism):
        cfg = make_config(mechanism)
        assert config_from_canonical(canonicalize(cfg)) == cfg

    def test_spec_rebuilds_equal_job(self):
        job = SimJob(WL, make_config("boomerang").with_llc_latency(42), SCALE)
        rebuilt = job_from_spec(job_spec(job))
        assert rebuilt == job
        assert rebuilt.key == job.key

    def test_tampered_config_fails_digest_check(self):
        job = SimJob(WL, make_config("fdip"), SCALE)
        spec = job_spec(job)
        spec["config"]["core"]["ftq_depth"] = 7  # not what the digest covers
        with pytest.raises(BrokerError) as err:
            job_from_spec(spec)
        assert "digest mismatch" in str(err.value)


# ---------------------------------------------------------------------------
# Bit-identical results across backends (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    def test_serial_pool_broker_bit_identical_all_mechanisms(self, tmp_path):
        configs = [make_config(m) for m in MECHANISMS]
        jobs = _jobs(*configs)
        serial = ExperimentRuntime(backend="serial").run_many(jobs)
        pool = ExperimentRuntime(jobs=2, backend="pool").run_many(jobs)
        broker = ExperimentRuntime(
            backend="broker", cache_dir=tmp_path / "broker"
        ).run_many(jobs)
        assert len(serial) == len(pool) == len(broker) == len(MECHANISMS)
        for s, p, b in zip(serial, pool, broker):
            assert s.mechanism == p.mechanism == b.mechanism
            assert s.raw == p.raw, f"pool diverged on {s.mechanism}"
            assert s.raw == b.raw, f"broker diverged on {s.mechanism}"

    def test_broker_telemetry_folded_into_runtime(self, tmp_path):
        rt = ExperimentRuntime(backend="broker", cache_dir=tmp_path)
        rt.run_many(_jobs(make_config("none"), make_config("fdip")))
        telemetry = rt.backend_telemetry
        assert telemetry["backend"] == "broker"
        assert telemetry["broker_jobs"] == 2
        assert sum(telemetry["broker_workers"].values()) == 2
        assert telemetry["broker_retries"] == 0


# ---------------------------------------------------------------------------
# Broker queue semantics
# ---------------------------------------------------------------------------


class TestDuplicateClaimImpossible:
    def test_concurrent_stealers_claim_each_job_exactly_once(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        jobs = _jobs(*(make_config("none").with_llc_latency(lat) for lat in range(1, 13)))
        ids = [queue.enqueue(job) for job in jobs]
        assert len(set(ids)) == len(jobs)

        claims: list[str] = []
        lock = threading.Lock()

        def stealer():
            while True:
                claimed = queue.claim()
                if claimed is None:
                    return
                with lock:
                    claims.append(claimed.job_id)

        threads = [threading.Thread(target=stealer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claims) == sorted(ids)  # every job exactly once
        assert queue.counts()["pending"] == 0
        assert queue.counts()["claimed"] == len(jobs)

    def test_enqueue_is_idempotent_while_visible(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job = _jobs(make_config("none"))[0]
        queue.enqueue(job)
        queue.enqueue(job)
        assert queue.counts()["pending"] == 1
        queue.claim()
        queue.enqueue(job)  # claimed jobs must not be double-queued either
        assert queue.counts()["pending"] == 0


class TestClaimLeaseClock:
    def test_long_pending_wait_does_not_arrive_expired(self, tmp_path):
        """The rename preserves mtime, so the lease clock must be reset at
        claim time — otherwise a job that waited longer than the lease is
        recoverable out from under its (live) claimer."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        queue.enqueue(_jobs(make_config("none"))[0])
        pending_file = next(queue.pending.glob("*.json"))
        _backdate(pending_file, seconds=3600)  # sat in the queue for an hour
        claimed = queue.claim()
        assert claimed is not None
        assert queue.recover_expired() == 0  # fresh lease, not recoverable
        assert queue.counts()["claimed"] == 1


class TestStaleSpecs:
    def test_stale_engine_schema_pending_spec_is_replaced_on_enqueue(self, tmp_path):
        import json

        from repro.runtime.atomicio import atomic_write_json, read_json

        queue = BrokerQueue(tmp_path)
        job = _jobs(make_config("none"))[0]
        job_id = queue.enqueue(job)
        path = next(queue.pending.glob(f"{job_id}__*a0.json"))
        stale = read_json(path)
        stale["engine_schema"] = "engine-v0-000000000000"
        atomic_write_json(path, stale)
        queue.enqueue(job)  # must notice the dead spec and write a fresh one
        spec = json.loads(path.read_text())
        from repro.runtime import SCHEMA_TAG

        assert spec["engine_schema"] == SCHEMA_TAG
        assert queue.counts()["pending"] == 1

    def test_preexisting_done_records_do_not_count_as_executed(self, tmp_path):
        jobs = _jobs(make_config("none"), make_config("fdip"))
        first = ExperimentRuntime(backend="broker", cache_dir=tmp_path)
        first.run_many(jobs)
        assert first.executed == 2
        # Wipe the result cache but keep the queue's done records — the
        # state an interrupted coordinator leaves behind.
        from repro.runtime import SCHEMA_TAG
        import shutil

        shutil.rmtree(tmp_path / SCHEMA_TAG)
        rerun = ExperimentRuntime(backend="broker", cache_dir=tmp_path)
        results = rerun.run_many(jobs)
        assert len(results) == 2 and all(r.raw["cycles"] > 0 for r in results)
        assert rerun.executed == 0  # answered from done records, not re-run
        assert rerun.backend_telemetry["broker_reused"] == 2


class TestCrashRecovery:
    def test_expired_lease_requeues_with_bumped_attempt(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        job_id = queue.enqueue(job)
        claimed = queue.claim()
        assert claimed is not None and claimed.attempts == 0
        # Simulate a SIGKILLed worker: no completion, lease left to age out.
        _backdate(claimed.path, seconds=60)
        assert queue.recover_expired() == 1
        from repro.runtime.broker import _parse_job_name

        names = os.listdir(queue.pending)
        assert [_parse_job_name(n)[0::2] for n in names] == [(job_id, 1)]
        reclaimed = queue.claim()
        assert reclaimed is not None and reclaimed.attempts == 1

    def test_live_lease_is_not_recovered(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        queue.enqueue(_jobs(make_config("none"))[0])
        claimed = queue.claim()
        queue.heartbeat(claimed)
        assert queue.recover_expired() == 0
        assert queue.counts()["claimed"] == 1

    def test_completed_but_unreleased_claim_is_cleaned_not_requeued(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        queue.enqueue(job)
        claimed = queue.claim()
        from repro.runtime import execute_job

        result = execute_job(job)
        record = queue.complete(claimed, result, "w-test", run_seconds=0.1)
        assert record["attempts"] == 1
        # Re-create the "crashed after done, before unlink" window.
        claimed.path.write_text((queue.done / f"{claimed.job_id}.json").read_text())
        _backdate(claimed.path, seconds=60)
        queue.recover_expired()
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}

    def test_retry_cap_moves_job_to_failed(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30, max_attempts=2)
        job = _jobs(make_config("none"))[0]
        job_id = queue.enqueue(job)
        for expected_attempts in (0, 1):
            claimed = queue.claim()
            assert claimed.attempts == expected_attempts
            _backdate(claimed.path, seconds=60)
            queue.recover_expired()
        failure = queue.read_failed(job_id)
        assert failure is not None
        assert failure["attempts"] == 2
        assert "lease expired" in failure["error"]
        assert queue.counts()["pending"] == 0


class TestRetryCapSurfacesCleanly:
    def test_poison_job_raises_broker_error_with_context(self, tmp_path):
        # A workload no worker can load: every execution attempt fails,
        # the retry cap trips, and the coordinator reports one clean error.
        poison = SimJob("no-such-workload", make_config("none"), SCALE)
        backend = BrokerBackend(tmp_path, max_attempts=2, timeout=30)
        with pytest.raises(BrokerError) as err:
            backend.run_batch([poison])
        message = str(err.value)
        assert "no-such-workload" in message
        assert "2 attempt(s)" in message
        assert queue_failed_count(tmp_path) == 1

    def test_failed_marker_does_not_poison_resubmission(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job = _jobs(make_config("none"))[0]
        job_id = queue.enqueue(job)
        claimed = queue.claim()
        assert queue.fail(claimed, "boom") is True  # requeued (attempt 1 of 3)
        claimed = queue.claim()
        assert queue.fail(claimed, "boom") is True  # requeued (attempt 2 of 3)
        claimed = queue.claim()
        assert queue.fail(claimed, "boom") is False  # terminal
        assert queue.read_failed(job_id) is not None
        queue.enqueue(job)  # a fresh submission starts over
        assert queue.read_failed(job_id) is None
        assert queue.counts()["pending"] == 1

    def test_fail_after_lost_lease_does_not_double_requeue(self, tmp_path):
        """A worker whose claim was lease-recovered while it was busy must
        not requeue the job a second time — the recovery already did."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        queue.enqueue(_jobs(make_config("none"))[0])
        claimed = queue.claim()
        _backdate(claimed.path, seconds=60)
        assert queue.recover_expired() == 1  # job is pending again (a1)
        assert queue.fail(claimed, "boom") is True  # no-op: claim is gone
        assert queue.counts()["pending"] == 1  # exactly one spec, not two
        assert queue.read_failed(claimed.job_id) is None

    def test_backend_summary_renders_flat_worker_counts(self, tmp_path):
        from repro.runtime import backend_summary

        rt = ExperimentRuntime(backend="broker", cache_dir=tmp_path)
        rt.backend_telemetry = {
            "backend": "broker",
            "broker_jobs": 3,
            "broker_workers": {"w2": 1, "w1": 2},
        }
        summary = backend_summary(rt)
        assert summary == "backend=broker, broker_jobs=3, broker_workers=w1:2/w2:1"

    def test_coordinator_timeout_without_workers(self, tmp_path):
        backend = BrokerBackend(tmp_path, steal=False, timeout=0.5, poll_seconds=0.05)
        with pytest.raises(BrokerError) as err:
            backend.run_batch(_jobs(make_config("none")))
        assert "timed out" in str(err.value)


class TestCoordinatorTimeout:
    @pytest.mark.parametrize("raw", ["0", "-1", "-0.5", "nan", "inf"])
    def test_non_positive_env_timeout_rejected(self, monkeypatch, raw):
        # 0 used to mean "no deadline" and -1 "time out at once".
        monkeypatch.setenv("REPRO_BROKER_TIMEOUT", raw)
        with pytest.raises(ConfigError) as err:
            broker_env_options()
        assert "REPRO_BROKER_TIMEOUT" in str(err.value)

    @pytest.mark.parametrize("timeout", [0, 0.0, -1.0, math.nan, math.inf])
    def test_non_positive_explicit_timeout_rejected(self, tmp_path, timeout):
        with pytest.raises(ConfigError) as err:
            BrokerBackend(tmp_path, timeout=timeout)
        assert "REPRO_BROKER_TIMEOUT" in str(err.value)

    def test_positive_or_unset_timeout_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER_TIMEOUT", raising=False)
        assert broker_env_options()["timeout"] is None
        monkeypatch.setenv("REPRO_BROKER_TIMEOUT", "2.5")
        assert broker_env_options()["timeout"] == 2.5
        assert BrokerBackend(tmp_path, timeout=None).timeout is None
        assert BrokerBackend(tmp_path, timeout=0.1).timeout == 0.1


def queue_failed_count(cache_dir) -> int:
    return BrokerQueue(cache_dir).counts()["failed"]


# ---------------------------------------------------------------------------
# The stand-alone worker loop
# ---------------------------------------------------------------------------


class TestRunWorker:
    def test_drain_on_empty_queue_exits_quickly(self, tmp_path):
        started = time.time()
        completed = run_worker(tmp_path, drain=True, max_idle=0.2, poll_seconds=0.05)
        assert completed == 0
        assert time.time() - started < 10

    def test_worker_drains_queue_and_records_telemetry(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        jobs = _jobs(make_config("none"), make_config("fdip"))
        ids = [queue.enqueue(job) for job in jobs]
        completed = run_worker(
            tmp_path, worker_id="w-test", drain=True, max_idle=0.2, poll_seconds=0.05
        )
        assert completed == 2
        for job_id in ids:
            record = queue.read_done(job_id)
            assert record is not None
            assert record["worker"] == "w-test"
            assert record["attempts"] == 1
            assert record["run_s"] >= 0
        # The worker also warmed the shared result cache: a fresh runtime
        # against the same dir resolves both jobs without simulating.
        warm = ExperimentRuntime(cache_dir=tmp_path)
        warm.run_many(jobs)
        assert warm.executed == 0


# ---------------------------------------------------------------------------
# Requeue-aware wait telemetry (retry-inflated queue_wait_s regression)
# ---------------------------------------------------------------------------


class TestQueueWaitTelemetry:
    def _age_enqueue(self, queue: BrokerQueue, seconds: float) -> None:
        """Make the one pending spec look ``seconds`` old (spec + file)."""
        from repro.runtime.atomicio import atomic_write_json, read_json

        path = next(queue.pending.glob("*.json"))
        spec = read_json(path)
        spec["enqueued_at"] -= seconds
        atomic_write_json(path, spec)
        _backdate(path, seconds=seconds)

    def test_first_attempt_wait_measures_from_enqueue(self, tmp_path):
        from repro.runtime import execute_job

        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        queue.enqueue(job)
        self._age_enqueue(queue, 100.0)
        claimed = queue.claim("w1")
        record = queue.complete(claimed, execute_job(job), "w1", run_seconds=0.1)
        assert record["queue_wait_s"] > 90.0  # it genuinely waited
        assert record["age_s"] >= record["queue_wait_s"]

    def test_forced_retry_does_not_inflate_queue_wait(self, tmp_path):
        """Before the fix a retried job's queue_wait_s was measured from
        the *original* enqueued_at, silently absorbing the failed
        attempt's run time; it must measure from the requeue instead,
        with age_s keeping the end-to-end view."""
        from repro.runtime import execute_job

        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        queue.enqueue(job)
        self._age_enqueue(queue, 100.0)
        claimed = queue.claim("w1")
        assert claimed is not None
        assert queue.fail(claimed, "injected failure") is True  # requeue
        retried = queue.claim("w1")
        assert retried is not None and retried.attempts == 1
        assert retried.spec["requeued_at"] > retried.spec["enqueued_at"]
        record = queue.complete(retried, execute_job(job), "w1", run_seconds=0.1)
        assert record["attempts"] == 2
        assert record["queue_wait_s"] < 10.0  # waits from the requeue only
        assert record["age_s"] > 90.0  # end-to-end age keeps the history

    def test_lease_recovery_requeue_resets_the_wait_clock(self, tmp_path):
        """The crash-recovery path requeues by pure rename (no spec
        rewrite possible); the recovery touch must still reset the
        claimer's runnable_at so queue_wait_s excludes the dead worker's
        lease window."""
        from repro.runtime import execute_job

        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        queue.enqueue(job)
        self._age_enqueue(queue, 100.0)
        claimed = queue.claim("w-dead")
        _backdate(claimed.path, seconds=100)  # the claimer crashed
        assert queue.recover_expired() == 1
        rescued = queue.claim("w-rescue")
        assert rescued is not None and rescued.attempts == 1
        record = queue.complete(rescued, execute_job(job), "w-rescue", 0.1)
        assert record["queue_wait_s"] < 10.0
        assert record["age_s"] > 90.0


# ---------------------------------------------------------------------------
# Stale-schema claimed specs (resubmission-poisoning regression)
# ---------------------------------------------------------------------------


class TestStaleClaimedSpecs:
    def _plant_stale_claim(self, queue: BrokerQueue, job, age: float):
        """A claimed spec written by an old-schema worker that crashed."""
        from repro.runtime.atomicio import atomic_write_json

        queue.enqueue(job)
        claimed = queue.claim("w-old")
        spec = dict(claimed.spec)
        spec["engine_schema"] = "engine-v0-000000000000"
        atomic_write_json(claimed.path, spec)
        _backdate(claimed.path, seconds=age)
        return claimed

    def test_expired_stale_claim_is_purged_on_enqueue(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        self._plant_stale_claim(queue, job, age=60)
        queue.enqueue(job)  # must purge the dead claim and write fresh
        counts = queue.counts()
        assert counts == {"pending": 1, "claimed": 0, "done": 0, "failed": 0}

    def test_live_stale_claim_is_not_robbed(self, tmp_path):
        """Only an *expired* stale-schema claim may be purged — a live
        old-schema worker still owns its lease (it will terminal-fail the
        job itself, but robbing a live claim is never safe)."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        self._plant_stale_claim(queue, job, age=0)
        queue.enqueue(job)
        counts = queue.counts()
        assert counts == {"pending": 0, "claimed": 1, "done": 0, "failed": 0}

    def test_recover_expired_deletes_stale_claim_instead_of_requeueing(
        self, tmp_path
    ):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        self._plant_stale_claim(queue, job, age=60)
        assert queue.recover_expired() == 1
        # Deleted, not requeued: its claimer could only terminal-fail it.
        counts = queue.counts()
        assert counts == {"pending": 0, "claimed": 0, "done": 0, "failed": 0}

    def test_fresh_batch_completes_over_a_dead_old_schema_claim(self, tmp_path):
        """Before the fix: the stale claim blocked the fresh enqueue, got
        lease-recovered, terminal-failed on the schema check, and the
        coordinator raised BrokerError for a job it could simply have
        resubmitted. The fresh batch must now just complete."""
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        job = _jobs(make_config("none"))[0]
        self._plant_stale_claim(queue, job, age=60)
        backend = BrokerBackend(tmp_path, lease_seconds=30, timeout=60)
        results = backend.run_batch([job])
        assert len(results) == 1 and results[0].raw["cycles"] > 0
        record = queue.read_done(queue.job_id(job))
        assert record is not None
        assert record["attempts"] == 1  # the dead claim's attempt is gone
        assert queue.counts()["failed"] == 0


# ---------------------------------------------------------------------------
# Broker env validation: errors name the variable and the value
# ---------------------------------------------------------------------------


class TestBrokerEnvValidation:
    @pytest.mark.parametrize("raw", ["0", "-5", "-0.5", "nan", "inf"])
    def test_non_positive_env_lease_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BROKER_LEASE", raw)
        with pytest.raises(ConfigError) as err:
            broker_env_options()
        assert "REPRO_BROKER_LEASE" in str(err.value)
        assert f"got {float(raw):g}" in str(err.value)

    @pytest.mark.parametrize("lease", [0, 0.0, -5.0, math.nan, math.inf])
    def test_non_positive_explicit_lease_rejected(self, tmp_path, lease):
        with pytest.raises(ConfigError, match="REPRO_BROKER_LEASE"):
            BrokerQueue(tmp_path, lease_seconds=lease)
        with pytest.raises(ConfigError, match="REPRO_BROKER_LEASE"):
            BrokerBackend(tmp_path, lease_seconds=lease)

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_env_max_attempts_below_one_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BROKER_MAX_ATTEMPTS", raw)
        with pytest.raises(ConfigError) as err:
            broker_env_options()
        assert "REPRO_BROKER_MAX_ATTEMPTS" in str(err.value)
        assert f"got {raw}" in str(err.value)

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_explicit_max_attempts_below_one_rejected(self, tmp_path, attempts):
        with pytest.raises(ConfigError, match="REPRO_BROKER_MAX_ATTEMPTS"):
            BrokerQueue(tmp_path, max_attempts=attempts)

    def test_valid_and_unset_values_accepted(self, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER_LEASE", raising=False)
        monkeypatch.delenv("REPRO_BROKER_MAX_ATTEMPTS", raising=False)
        options = broker_env_options()
        assert options["lease_seconds"] == 300.0
        assert options["max_attempts"] == 3
        monkeypatch.setenv("REPRO_BROKER_LEASE", "0.5")
        monkeypatch.setenv("REPRO_BROKER_MAX_ATTEMPTS", "1")
        options = broker_env_options()
        assert options["lease_seconds"] == 0.5
        assert options["max_attempts"] == 1


#: The boolean env options and the default each call site resolves them
#: with (the broker's steal flag, the sweeps CLI's autorefresh).
_FLAG_DEFAULTS = {"REPRO_BROKER_STEAL": True, "REPRO_WAREHOUSE_AUTOREFRESH": False}


class TestEnvFlag:
    @pytest.mark.parametrize("name", sorted(_FLAG_DEFAULTS))
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (None, "default"),
            ("", "default"),
            ("1", True),
            ("true", True),
            ("YES", True),
            ("0", False),
            ("False", False),
            ("no", False),
            ("off", ConfigError),
            ("2", ConfigError),
            (" 1", ConfigError),
        ],
    )
    def test_flag_values(self, monkeypatch, name, raw, expected):
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
        default = _FLAG_DEFAULTS[name]
        if name == "REPRO_BROKER_STEAL":
            resolve_flag = lambda: broker_env_options()["steal"]
        else:
            resolve_flag = lambda: resolve(name)
        if expected is ConfigError:
            with pytest.raises(ConfigError) as err:
                resolve_flag()
            assert name in str(err.value) and repr(raw) in str(err.value)
        else:
            assert resolve_flag() is (default if expected == "default" else expected)


# ---------------------------------------------------------------------------
# Queue format: broker-v3 batch specs left in a live queue
# ---------------------------------------------------------------------------


class TestDeletedBatchSpecs:
    """A ``broker-v3`` batch spec — ``configs``/``digests`` lists instead
    of one ``config`` — may survive in a queue written by older code. It
    must leave the queue through the stale-schema path: never executed,
    never crashing a worker or a coordinator."""

    CONFIGS = (make_config("none"), make_config("fdip"))

    def _v3_spec(self) -> dict:
        from repro.runtime import SCHEMA_TAG, config_digest, scale_token

        digests = [config_digest(c) for c in self.CONFIGS]
        return {
            "schema": "broker-v3",
            # Same engine as this code: only the queue schema is stale.
            "engine_schema": SCHEMA_TAG,
            "workload": WL,
            "scale": scale_token(SCALE),
            "digest": "ab" * 32,
            "cost": 999_999_999,  # would be claimed first, longest-first
            "enqueued_at": time.time(),
            "configs": [canonicalize(c) for c in self.CONFIGS],
            "digests": digests,
        }

    def _plant(self, queue: BrokerQueue, where: str, age: float = 0.0) -> str:
        import json

        from repro.runtime import scale_token

        queue._ensure_dirs()
        job_id = f"{WL}__s{scale_token(SCALE)}__{'ab' * 8}"
        path = getattr(queue, where) / f"{job_id}__w999999999__a0.json"
        path.write_text(json.dumps(self._v3_spec()))
        _backdate(path, seconds=age)
        return job_id

    def _assert_never_executed(self, tmp_path) -> None:
        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path)
        for config in self.CONFIGS:
            assert cache.get(*SimJob(WL, config, SCALE).key) is None

    def test_worker_fails_it_without_executing(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job_id = self._plant(queue, "pending")
        completed = run_worker(tmp_path, drain=True, max_idle=0.2, poll_seconds=0.05)
        assert completed == 0
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 0, "failed": 1}
        failure = queue.read_failed(job_id)
        assert "schema mismatch" in failure["error"]
        assert "broker-v3" in failure["error"]
        self._assert_never_executed(tmp_path)

    def test_coordinator_completes_its_jobs_beside_it(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        self._plant(queue, "pending")
        jobs = _jobs(make_config("boomerang"))
        results = BrokerBackend(tmp_path, timeout=60).run_batch(jobs)
        assert results[0].raw == SerialBackend().run_batch(jobs)[0].raw
        self._assert_never_executed(tmp_path)

    def test_expired_claim_is_purged_not_requeued(self, tmp_path):
        queue = BrokerQueue(tmp_path, lease_seconds=30)
        self._plant(queue, "claimed", age=60)
        assert queue.recover_expired() == 1
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 0, "failed": 0}

    def test_pending_spec_is_purged_by_a_same_id_enqueue(self, tmp_path):
        queue = BrokerQueue(tmp_path)
        job = _jobs(make_config("none"))[0]
        job_id = queue.enqueue(job)
        # Overwrite the fresh spec with the v3 shape under the same id.
        import json

        path = next(queue.pending.glob(f"{job_id}__*a0.json"))
        path.write_text(json.dumps(self._v3_spec()))
        queue.enqueue(job)
        spec = json.loads(next(queue.pending.glob(f"{job_id}__*a0.json")).read_text())
        assert spec["schema"] == BROKER_SCHEMA and "config" in spec

    def test_status_renders_over_it(self, tmp_path):
        from repro.runtime import build_status, render_status

        queue = BrokerQueue(tmp_path)
        self._plant(queue, "pending")
        status = build_status(tmp_path)
        assert status["queue"]["pending"] == 1
        assert "pending 1" in render_status(status)
