"""Grid-scale checks of the one engine: equivalence, dispatch, resume, profiling.

The load-bearing property is **bit-identity**: on every paper workload and
all 8 mechanisms, the gated :class:`~repro.core.engine.FrontEndEngine`
must produce exactly the statistics of the tick-every-stage reference loop
(``tests/engine_reference.py``), also with every stage wrapped in the
profiler's timing proxy. Everything else here guards what runs a batch of
cells: the runtime's fan-out/fan-in over pending jobs on the serial and
broker backends, results under per-cell cache keys, manifest resume that
fills exactly the missing cells, and the ``--profile-stages`` collector.
"""

from __future__ import annotations

import pytest

from engine_reference import check_equivalent
from repro.core import profiling
from repro.core.mechanisms import MECHANISMS, make_config
from repro.experiments.common import ExperimentScale
from repro.experiments.sweeps import SWEEPS, SweepSpec
from repro.experiments.sweeps.__main__ import main
from repro.experiments.sweeps.manifest import (
    load_manifest,
    missing_cells,
    write_manifest,
)
from repro.runtime import ExperimentRuntime, SimJob, configure_runtime, execute_job
from repro.runtime import runner as runner_mod
from repro.runtime.cache import SCHEMA_TAG, ResultCache
from repro.workloads import load_workload
from repro.workloads.workload import reset_trace_store

#: The paper's six workloads (PROFILE_SETS["paper"]).
PAPER_WORKLOADS = ("nutch", "streaming", "apache", "zeus", "oracle", "db2")

#: Small enough that the full 6 x 8 matrix runs three times in a unit test.
SCALE = 0.06


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Fresh process-wide runtime per test; never leak an active profiler."""
    monkeypatch.setattr(runner_mod, "_RUNTIME", None)
    yield
    profiling.disable()
    runner_mod._RUNTIME = None
    reset_trace_store()


# ---------------------------------------------------------------------------
# Golden equivalence: gated loop vs reference loop, bit-identical
# ---------------------------------------------------------------------------


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workload", PAPER_WORKLOADS)
    def test_all_mechanisms_bit_identical(self, workload):
        wl = load_workload(workload, scale=SCALE)
        for mech in MECHANISMS:
            check_equivalent(wl, make_config(mech))

    def test_knob_variants_bit_identical(self):
        """Knobs that change which stages act when (latency, BTB size,
        predictor, perfect structures) must not open a gate wrongly."""
        wl = load_workload("apache", scale=0.1)
        for config in (
            make_config("fdip").with_llc_latency(10),
            make_config("fdip").with_llc_latency(70),
            make_config("boomerang").with_btb_entries(1024),
            make_config("boomerang").with_btb_entries(8192),
            make_config("none").with_predictor("bimodal"),
            make_config("confluence").with_llc_latency(50),
            make_config("boomerang", perfect_btb=True),
            make_config("shift", perfect_l1i=True),
        ):
            check_equivalent(wl, config)


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
        """One ``run_many`` over a grid == each cell run on its own."""
        jobs = _grid()
        runtime = ExperimentRuntime()
        got = runtime.run_many(jobs)
        assert [r.raw for r in got] == [execute_job(job).raw for job in jobs]
        assert [(r.workload, r.mechanism) for r in got] == [
            (job.workload, job.config.mechanism) for job in jobs
        ]
        assert runtime.executed == len(jobs)

    def test_batched_results_land_under_per_cell_keys(self, tmp_path):
        jobs = _grid()
        runtime = ExperimentRuntime(cache_dir=tmp_path)
        first = runtime.run_many(jobs)
        assert runtime.executed == len(jobs)
        cache = ResultCache(tmp_path)
        for job in jobs:
            assert cache.get(*job.key) is not None
        # A fresh runtime (fresh process, effectively) resolves everything
        # from the per-cell cache and executes nothing.
        warm = ExperimentRuntime(cache_dir=tmp_path)
        again = warm.run_many(jobs)
        assert warm.executed == 0
        assert [r.raw for r in again] == [r.raw for r in first]

    def test_broker_backend_runs_batch_units(self, tmp_path):
        jobs = [
            SimJob("streaming", make_config(mech), 0.05)
            for mech in ("none", "fdip", "boomerang", "pif")
        ]
        expect = ExperimentRuntime().run_many(jobs)
        runtime = ExperimentRuntime(cache_dir=tmp_path, backend="broker")
        got = runtime.run_many(jobs)
        assert [r.raw for r in got] == [r.raw for r in expect]
        # execute_claimed stored every job under its per-cell key.
        cache = ResultCache(tmp_path)
        for job in jobs:
            assert cache.get(*job.key) is not None


# ---------------------------------------------------------------------------
# Manifest resume: fill exactly the missing cells
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
    "btest", "resume test grid", "d",
    mechanisms=("fdip",),
    axes=(("llc_latency", (30,)),),
)


class TestResumeWithBatchedFill:
    @pytest.fixture(autouse=True)
    def _registered(self, monkeypatch, register_scale):
        register_scale(TINY)
        monkeypatch.setitem(SWEEPS, "btest", BSPEC)

    def test_missing_cells_filled_by_batched_run(self, tmp_path, capsys):
        """Interrupt a run and resume it: exactly the missing cells
        simulate, in one ``run_many`` batch, and the merged table is
        bit-identical to the uninterrupted run."""
        runtime = configure_runtime(cache_dir=tmp_path)
        manifest = write_manifest(tmp_path, BSPEC, "btiny", None)
        full_table = BSPEC.run("btiny").to_table()
        assert runtime.executed == 12

        # Loose records sort by workload directory, so dropping the first
        # half erases whole workloads.
        loose = sorted((tmp_path / SCHEMA_TAG).rglob("*.json"))
        assert len(loose) == 12
        for path in loose[:6]:
            path.unlink()

        runner_mod._RUNTIME = None  # a fresh process, effectively
        runtime = configure_runtime(cache_dir=tmp_path)
        missing = missing_cells(load_manifest(manifest.path), runtime.disk)
        assert len(missing) == 6
        runtime.run_many(missing)
        assert runtime.executed == 6  # exactly the missing cells
        assert BSPEC.run("btiny").to_table() == full_table

        # The CLI resume path on the now-complete cache.
        runner_mod._RUNTIME = None
        capsys.readouterr()
        assert main(["run", "--resume", str(manifest.path), "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "12/12 cells already cached, submitting 0 missing" in out


# ---------------------------------------------------------------------------
# Per-stage profiling (--profile-stages)
# ---------------------------------------------------------------------------


def _profiled(job: SimJob) -> tuple[profiling.StageProfiler, dict]:
    profiler = profiling.enable()
    try:
        raw = execute_job(job).raw
    finally:
        profiling.disable()
    return profiler, raw


class TestProfiling:
    """An activation is a cycle on which a stage's gate opened and the
    engine called its ``tick``; profiling wraps each tick in a timing
    pass-through, so a profiled run must be bit-identical to a plain one."""

    def test_profiled_per_cell_run_bit_identical(self):
        job = SimJob("apache", make_config("boomerang"), SCALE)
        _, raw = _profiled(job)
        assert raw == execute_job(job).raw

    def test_per_cell_table_attributes_every_stage(self):
        profiler, _ = _profiled(SimJob("apache", make_config("boomerang"), SCALE))
        table = profiler.table()
        for stage in ("fill", "squash", "retire", "decode",
                      "fetch", "bpu+miss-probe", "prefetch:ftq-scan"):
            assert stage in table
        assert "gate opened" in table
        assert "total" in table

    @pytest.mark.parametrize("mechanism", ["none", "fdip", "boomerang", "confluence"])
    def test_activations_count_gate_openings(self, mechanism):
        """Idle stages are not called: fill and squash act on far fewer
        cycles than the run has, and every stage that acted (ran at least
        one tick) shows at least one activation."""
        profiler, raw = _profiled(SimJob("oracle", make_config(mechanism), SCALE))
        cycles = raw["total_cycles"]
        rows = {name: calls for name, (calls, _) in profiler.rows.items()}
        assert set(rows) >= {"squash", "retire", "decode", "fetch"}
        fill = next(calls for name, calls in rows.items() if name.startswith("fill"))
        assert 1 <= fill < cycles
        assert 1 <= rows["squash"] < cycles
        assert raw["squash_btb"] + raw["squash_cond"] + raw["squash_target"] <= rows["squash"]
        for name, calls in rows.items():
            assert 1 <= calls <= cycles, name

    def test_table_reports_visited_cycles(self):
        """The engine jumps idle runs; the table says how many cycles it
        visited of those it simulated."""
        profiler, raw = _profiled(SimJob("oracle", make_config("none"), SCALE))
        simulated, visited = profiler.cycles
        assert simulated == raw["total_cycles"]
        assert 0 < visited < simulated
        assert f"cycles: simulated {simulated}, visited {visited} (" in profiler.table()

    def test_empty_profiler_says_so(self):
        profiler = profiling.StageProfiler()
        assert "nothing executed" in profiler.table()

    def test_cli_flag_forces_serial_backend(
        self, tmp_path, capsys, monkeypatch, register_scale
    ):
        register_scale(TINY)
        monkeypatch.setitem(SWEEPS, "btest", BSPEC)
        assert main(
            ["run", "btest", "--scale", "btiny", "--profile-stages",
             "--backend", "pool", "--cache-dir", str(tmp_path), "--no-table"]
        ) == 0
        captured = capsys.readouterr()
        assert "forces the serial backend" in captured.err
        assert "per-stage attribution" in captured.out
        assert "backend=serial" in captured.out
