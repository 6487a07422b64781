"""Batched grid execution: golden equivalence, planning, dispatch, profiling.

The load-bearing property is **bit-identity**: a
:class:`~repro.core.batch.BatchedEngine` pass over N configs must produce
exactly the per-cell engine's statistics for every lane — across all 8
mechanisms and every paper workload — because batched results land in the
per-cell result cache under unchanged keys. Everything else here guards
the machinery around that property: batch planning, option resolution,
cost-aware broker scheduling, the runtime fan-out/fan-in, manifest resume
with batched fill, and the ``--profile-stages`` collector.
"""

from __future__ import annotations

import pytest

from repro.core import profiling
from repro.core.mechanisms import MECHANISMS, make_config
from repro.errors import BrokerError
from repro.experiments.common import SCALES, ExperimentScale
from repro.experiments.sweeps import SWEEPS, SweepSpec
from repro.experiments.sweeps.__main__ import main
from repro.experiments.sweeps.manifest import (
    load_manifest,
    missing_cells,
    write_manifest,
)
from repro.runtime import (
    DEFAULT_BATCH_WIDTH,
    BatchJob,
    ExperimentRuntime,
    SimJob,
    configure_runtime,
    estimate_job_cost,
    execute_batch_job,
    execute_job,
    plan_batch_units,
    resolve_options,
)
from repro.runtime import runner as runner_mod
from repro.runtime.broker import BrokerQueue, job_from_spec, job_spec
from repro.runtime.cache import SCHEMA_TAG, ResultCache
from repro.workloads.workload import reset_trace_store

#: The paper's six workloads (PROFILE_SETS["paper"]).
PAPER_WORKLOADS = ("nutch", "streaming", "apache", "zeus", "oracle", "db2")

#: Small enough that the full 6 x 8 matrix executes inside a unit test.
SCALE = 0.06


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Fresh process-wide runtime per test; never leak an active profiler."""
    monkeypatch.setattr(runner_mod, "_RUNTIME", None)
    yield
    profiling.disable()
    runner_mod._RUNTIME = None
    reset_trace_store()


def _job(llc: int, workload: str = "streaming", scale: float = 0.05) -> SimJob:
    return SimJob(workload, make_config("none").with_llc_latency(llc), scale)


def _claim_all(queue: BrokerQueue) -> list[str]:
    order = []
    while (claimed := queue.claim()) is not None:
        order.append(claimed.job_id)
    return order


# ---------------------------------------------------------------------------
# Golden equivalence: batched vs per-cell, bit-identical
# ---------------------------------------------------------------------------


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_all_mechanisms_bit_identical(self, workload):
        """One batched pass over all 8 mechanisms == 8 per-cell runs."""
        configs = tuple(make_config(mech) for mech in MECHANISMS)
        batched = execute_batch_job(BatchJob(workload, configs, SCALE))
        assert len(batched) == len(MECHANISMS)
        for mech, config, got in zip(MECHANISMS, configs, batched):
            expect = execute_job(SimJob(workload, config, SCALE))
            assert got.workload == expect.workload == workload
            assert got.mechanism == expect.mechanism == mech
            assert got.raw == expect.raw, f"{workload}/{mech} diverged"

    def test_knob_variants_bit_identical(self):
        """Lanes differing only in knobs (latency, BTB size, predictor)
        must not bleed into each other through the shared trace walk."""
        variants = (
            make_config("fdip").with_llc_latency(10),
            make_config("fdip").with_llc_latency(70),
            make_config("boomerang").with_btb_entries(1024),
            make_config("boomerang").with_btb_entries(8192),
            make_config("none").with_predictor("bimodal"),
            make_config("confluence").with_llc_latency(50),
        )
        batched = execute_batch_job(BatchJob("apache", variants, 0.2))
        for config, got in zip(variants, batched):
            expect = execute_job(SimJob("apache", config, 0.2))
            assert got.raw == expect.raw

    def test_batch_width_does_not_matter(self):
        """Splitting the same grid into different batch shapes is
        invisible: each lane's stats depend only on its own config."""
        configs = tuple(make_config(m) for m in ("none", "fdip", "boomerang", "pif"))
        whole = execute_batch_job(BatchJob("oracle", configs, SCALE))
        halves = execute_batch_job(
            BatchJob("oracle", configs[:2], SCALE)
        ) + execute_batch_job(BatchJob("oracle", configs[2:], SCALE))
        assert [r.raw for r in whole] == [r.raw for r in halves]


# ---------------------------------------------------------------------------
# Batch planning
# ---------------------------------------------------------------------------


class TestBatchPlanning:
    def test_groups_by_workload_in_first_appearance_order(self):
        cfg = make_config("none")
        jobs = [
            SimJob("apache", cfg, 0.1),
            SimJob("oracle", cfg, 0.1),
            SimJob("apache", make_config("fdip"), 0.1),
            SimJob("apache", make_config("pif"), 0.1),
            SimJob("oracle", make_config("fdip"), 0.1),
        ]
        units, positions = plan_batch_units(jobs, width=2)
        assert positions == [[0, 2], [3], [1, 4]]
        assert isinstance(units[0], BatchJob) and units[0].workload == "apache"
        assert units[1] is jobs[3]  # singleton leftover stays a plain SimJob
        assert isinstance(units[2], BatchJob) and units[2].workload == "oracle"
        assert units[0].configs == (jobs[0].config, jobs[2].config)

    def test_scale_splits_groups(self):
        cfg = make_config("none")
        jobs = [SimJob("apache", cfg, 0.1), SimJob("apache", make_config("fdip"), 0.2)]
        units, positions = plan_batch_units(jobs, width=4)
        # Different scales walk different traces — never one batch.
        assert units == jobs and positions == [[0], [1]]

    def test_width_caps_the_chunk(self):
        jobs = [SimJob("apache", make_config(m), 0.1) for m in MECHANISMS]
        units, positions = plan_batch_units(jobs, width=3)
        assert [len(chunk) for chunk in positions] == [3, 3, 2]
        assert all(isinstance(u, BatchJob) for u in units)

    def test_width_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            plan_batch_units([], width=1)

    def test_batch_key_shape_and_sensitivity(self):
        configs = (make_config("none"), make_config("fdip"))
        batch = BatchJob("apache", configs, 0.1)
        workload, scale_tok, digest = batch.key
        assert workload == "apache" and scale_tok == "0.1"
        # Same 64-hex shape as a config digest: the digest[:16] job-id
        # grammar of the broker holds for batch units unchanged.
        assert len(digest) == 64 and int(digest, 16) >= 0
        flipped = BatchJob("apache", configs[::-1], 0.1)
        assert flipped.key[2] != digest

    def test_members_are_the_per_cell_jobs(self):
        configs = (make_config("none"), make_config("fdip"))
        batch = BatchJob("apache", configs, 0.1)
        assert batch.members == (
            SimJob("apache", configs[0], 0.1),
            SimJob("apache", configs[1], 0.1),
        )


# ---------------------------------------------------------------------------
# Option resolution (REPRO_BATCH / REPRO_BATCH_WIDTH)
# ---------------------------------------------------------------------------


class TestBatchOptions:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in ("REPRO_BATCH", "REPRO_BATCH_WIDTH"):
            monkeypatch.delenv(name, raising=False)

    def test_defaults(self):
        options = resolve_options()
        assert options.batch is False
        assert options.batch_width == DEFAULT_BATCH_WIDTH

    def test_env_enables_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "4")
        options = resolve_options()
        assert options.batch is True and options.batch_width == 4

    @pytest.mark.parametrize("falsy", ["0", "false", "no"])
    def test_env_falsy_spellings_disable(self, monkeypatch, falsy):
        monkeypatch.setenv("REPRO_BATCH", falsy)
        assert resolve_options().batch is False

    def test_explicit_kwargs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_BATCH_WIDTH", "32")
        options = resolve_options(batch=False, batch_width=8)
        assert options.batch is False and options.batch_width == 8

    @pytest.mark.parametrize("bad", ["abc", "1", "0", "-3"])
    def test_env_width_validated(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_BATCH_WIDTH", bad)
        with pytest.raises(ValueError, match="REPRO_BATCH_WIDTH"):
            resolve_options()

    def test_explicit_width_validated(self):
        with pytest.raises(ValueError, match=">= 2"):
            resolve_options(batch_width=1)
        with pytest.raises(ValueError, match=">= 2"):
            ExperimentRuntime(batch_width=1)


# ---------------------------------------------------------------------------
# Cost estimates and broker claim order
# ---------------------------------------------------------------------------


class TestBatchCostAndClaimOrder:
    def test_batch_cost_is_sum_of_member_costs(self):
        singles = [_job(30), _job(70)]
        batch = BatchJob(
            "streaming", tuple(job.config for job in singles), 0.05
        )
        member_costs = [estimate_job_cost(job) for job in singles]
        assert estimate_job_cost(batch) == sum(member_costs)

    def test_unknown_workload_propagates_none(self):
        batch = BatchJob(
            "no-such-workload", (make_config("none"), make_config("fdip")), 0.05
        )
        assert estimate_job_cost(batch) is None

    def test_cost_recorded_in_batch_spec(self):
        batch = BatchJob("streaming", (_job(30).config, _job(70).config), 0.05)
        assert job_spec(batch)["cost"] == estimate_job_cost(batch)

    def test_batch_unit_claims_before_singletons(self, tmp_path):
        """Longest-first: a batch of N lanes outranks each lane alone."""
        queue = BrokerQueue(tmp_path)
        single_ids = [queue.enqueue(_job(30, scale=s)) for s in (0.05, 0.08)]
        batch_id = queue.enqueue(
            BatchJob("streaming", (_job(30).config, _job(70).config), 0.05)
        )
        assert _claim_all(queue) == [batch_id, single_ids[1], single_ids[0]]

    def test_fifo_scheduler_ignores_batch_cost(self, tmp_path):
        queue = BrokerQueue(tmp_path, scheduler="fifo")
        first = queue.enqueue(_job(30))
        batch_id = queue.enqueue(
            BatchJob("streaming", (_job(50).config, _job(70).config), 0.05)
        )
        assert _claim_all(queue) == [first, batch_id]

    def test_batch_spec_round_trips(self):
        configs = (make_config("fdip").with_llc_latency(10), make_config("none"))
        batch = BatchJob("streaming", configs, 0.05)
        spec = job_spec(batch)
        assert len(spec["configs"]) == len(spec["digests"]) == 2
        assert "config" not in spec
        rebuilt = job_from_spec(spec)
        assert rebuilt == batch

    def test_member_digest_mismatch_rejected(self):
        batch = BatchJob(
            "streaming", (make_config("none"), make_config("fdip")), 0.05
        )
        spec = job_spec(batch)
        spec["digests"][1] = "0" * 64
        with pytest.raises(BrokerError, match="digest mismatch"):
            job_from_spec(spec)


# ---------------------------------------------------------------------------
# Runtime dispatch: fan-out, fan-in, per-cell cache keys
# ---------------------------------------------------------------------------


def _grid(scale: float = 0.05) -> list[SimJob]:
    return [
        SimJob(workload, make_config(mech), scale)
        for workload in ("apache", "oracle")
        for mech in ("none", "fdip", "boomerang")
    ]


class TestRuntimeBatchDispatch:
    def test_batched_run_many_bit_identical(self):
        jobs = _grid()
        plain = ExperimentRuntime().run_many(jobs)
        runtime = ExperimentRuntime(batch=True, batch_width=2)
        batched = runtime.run_many(jobs)
        assert [r.raw for r in batched] == [r.raw for r in plain]
        assert runtime.executed == len(jobs)
        # 3 jobs per workload at width 2: one 2-lane batch + 1 singleton.
        assert runtime.backend_telemetry["batch_units"] == 2
        assert runtime.backend_telemetry["batched_jobs"] == 4

    def test_batched_results_land_under_per_cell_keys(self, tmp_path):
        jobs = _grid()
        runtime = ExperimentRuntime(cache_dir=tmp_path, batch=True, batch_width=4)
        first = runtime.run_many(jobs)
        assert runtime.executed == len(jobs)
        cache = ResultCache(tmp_path)
        for job in jobs:
            assert cache.get(*job.key) is not None
        # A fresh runtime (fresh process, effectively) resolves everything
        # from the per-cell cache — batching never executed anything.
        warm = ExperimentRuntime(cache_dir=tmp_path, batch=True, batch_width=4)
        again = warm.run_many(jobs)
        assert warm.executed == 0
        assert [r.raw for r in again] == [r.raw for r in first]

    def test_broker_backend_runs_batch_units(self, tmp_path):
        jobs = [
            SimJob("streaming", make_config(mech), 0.05)
            for mech in ("none", "fdip", "boomerang", "pif")
        ]
        expect = ExperimentRuntime().run_many(jobs)
        runtime = ExperimentRuntime(
            cache_dir=tmp_path, backend="broker", batch=True, batch_width=2
        )
        got = runtime.run_many(jobs)
        assert [r.raw for r in got] == [r.raw for r in expect]
        # execute_claimed mirrored every member under its per-cell key.
        cache = ResultCache(tmp_path)
        for job in jobs:
            assert cache.get(*job.key) is not None


# ---------------------------------------------------------------------------
# Manifest resume with batched fill
# ---------------------------------------------------------------------------

#: 12 unique jobs (6 fdip cells + 6 matched baselines) at a tiny scale.
TINY = ExperimentScale(
    name="btiny",
    workload_scale=0.05,
    latency_points=(1, 30),
    btb_sizes=(2048,),
    fig3_btb_sizes=(2048,),
)

BSPEC = SweepSpec(
    "btest", "batched resume test grid", "d",
    mechanisms=("fdip",),
    axes=(("llc_latency", (30,)),),
)


class TestResumeWithBatchedFill:
    @pytest.fixture(autouse=True)
    def _registered(self, monkeypatch):
        monkeypatch.setitem(SCALES, "btiny", TINY)
        monkeypatch.setitem(SWEEPS, "btest", BSPEC)

    def test_missing_cells_filled_by_batched_run(self, tmp_path, capsys):
        """Interrupt a plain run, resume it **batched**: the batched fill
        must be invisible — exactly the missing cells simulate, and the
        merged table is bit-identical to the uninterrupted run."""
        runtime = configure_runtime(cache_dir=tmp_path)
        manifest = write_manifest(tmp_path, BSPEC, "btiny", None)
        full_table = BSPEC.run("btiny").to_table()
        assert runtime.executed == 12

        # Loose records sort by workload directory, so dropping the first
        # half erases whole workloads — the interruption shape where the
        # batched fill actually forms multi-lane units.
        loose = sorted((tmp_path / SCHEMA_TAG).rglob("*.json"))
        assert len(loose) == 12
        for path in loose[:6]:
            path.unlink()

        runner_mod._RUNTIME = None  # a fresh process, effectively
        runtime = configure_runtime(cache_dir=tmp_path, batch=True, batch_width=3)
        missing = missing_cells(load_manifest(manifest.path), runtime.disk)
        assert len(missing) == 6
        runtime.run_many(missing)
        assert runtime.executed == 6  # exactly the missing cells
        assert runtime.backend_telemetry["batch_units"] >= 1
        assert BSPEC.run("btiny").to_table() == full_table

        # The CLI resume path with --batch on the now-complete cache.
        runner_mod._RUNTIME = None
        capsys.readouterr()
        assert main(
            ["run", "--resume", str(manifest.path), "--batch", "--no-table"]
        ) == 0
        out = capsys.readouterr().out
        assert "12/12 cells already cached, submitting 0 missing" in out


# ---------------------------------------------------------------------------
# Per-stage profiling
# ---------------------------------------------------------------------------


class TestProfiling:
    def test_profiled_per_cell_run_bit_identical(self):
        job = SimJob("apache", make_config("boomerang"), SCALE)
        plain = execute_job(job)
        profiling.enable()
        try:
            profiled = execute_job(job)
        finally:
            profiling.disable()
        assert profiled.raw == plain.raw

    def test_profiled_batched_run_bit_identical(self):
        batch = BatchJob(
            "apache", (make_config("none"), make_config("boomerang")), SCALE
        )
        plain = execute_batch_job(batch)
        profiling.enable()
        try:
            profiled = execute_batch_job(batch)
        finally:
            profiling.disable()
        assert [r.raw for r in profiled] == [r.raw for r in plain]

    def test_per_cell_table_attributes_every_stage(self):
        profiler = profiling.enable()
        try:
            execute_job(SimJob("apache", make_config("boomerang"), SCALE))
        finally:
            profiling.disable()
        table = profiler.table()
        for stage in ("fill", "squash", "retire", "decode",
                      "fetch", "bpu+miss-probe", "prefetch:ftq-scan"):
            assert stage in table
        assert "total" in table

    def test_batched_table_includes_fast_forward(self):
        profiler = profiling.enable()
        try:
            execute_batch_job(
                BatchJob("apache", (make_config("none"), make_config("fdip")), SCALE)
            )
        finally:
            profiling.disable()
        assert "fast-forward" in profiler.table()

    def test_empty_profiler_says_so(self):
        profiler = profiling.StageProfiler()
        assert "nothing executed" in profiler.table()

    def test_cli_flag_forces_serial_backend(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(SCALES, "btiny", TINY)
        monkeypatch.setitem(SWEEPS, "btest", BSPEC)
        assert main(
            ["run", "btest", "--scale", "btiny", "--batch",
             "--profile-stages", "--backend", "pool",
             "--cache-dir", str(tmp_path), "--no-table"]
        ) == 0
        captured = capsys.readouterr()
        assert "forces the serial backend" in captured.err
        assert "per-stage attribution" in captured.out
        assert "backend=serial" in captured.out
