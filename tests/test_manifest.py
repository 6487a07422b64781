"""Sweep manifests: round-trip, cache diffing, and resume bit-identity."""

from __future__ import annotations

import pytest

from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.experiments.common import ExperimentScale
from repro.experiments.sweeps import SWEEPS, SweepSpec, get_sweep
from repro.experiments.sweeps.__main__ import main
from repro.experiments.sweeps.manifest import (
    cells_digest,
    load_manifest,
    missing_cells,
    resolve_cells,
    verify_matches_spec,
    write_manifest,
)
from repro.runtime import configure_runtime
from repro.runtime import runner as runner_mod
from repro.runtime.atomicio import atomic_write_json, read_json
from repro.runtime.cache import SCHEMA_TAG, ResultCache
from repro.workloads.workload import reset_trace_store

#: Small enough to actually execute the grid inside a unit test.
TINY = ExperimentScale(
    name="mtiny",
    workload_scale=0.05,
    latency_points=(1, 30),
    btb_sizes=(2048,),
    fig3_btb_sizes=(2048,),
)

#: 12 unique jobs at any scale: 6 fdip cells + 6 matched baselines.
RSPEC = SweepSpec(
    "rtest", "resume test grid", "d",
    mechanisms=("fdip",),
    axes=(("llc_latency", (30,)),),
)


@pytest.fixture(autouse=True)
def _registered(monkeypatch, register_scale):
    """Register the test grid/scale and isolate the process-wide runtime."""
    register_scale(TINY)
    monkeypatch.setitem(SWEEPS, "rtest", RSPEC)
    monkeypatch.setattr(runner_mod, "_RUNTIME", None)
    yield
    runner_mod._RUNTIME = None
    reset_trace_store()


def _fabricate(cache: ResultCache, cells) -> None:
    for cell in cells:
        cache.put(
            cell.workload,
            cell.scale_tok,
            cell.digest,
            SimulationResult(cell.workload, "x", {"cycles": 1.0}),
        )


class TestManifestRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        assert manifest.path.parent == tmp_path / "manifests"
        loaded = load_manifest(manifest.path)
        assert loaded.sweep == "rtest"
        assert loaded.scale == "mtiny"
        assert loaded.workload_set == "paper"  # frozen to the resolved name
        assert loaded.engine_schema == SCHEMA_TAG
        assert loaded.spec_digest == manifest.spec_digest
        assert loaded.cells == manifest.cells
        verify_matches_spec(loaded, RSPEC)

    def test_cells_are_deduplicated_like_job_count(self, tmp_path):
        from repro.experiments.common import get_scale

        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        assert len(manifest.cells) == RSPEC.job_count(get_scale("mtiny")) == 12

    def test_rewrite_is_stable(self, tmp_path):
        first = write_manifest(tmp_path, RSPEC, "mtiny", None)
        second = write_manifest(tmp_path, RSPEC, "mtiny", None)
        assert first.path == second.path
        assert first.spec_digest == second.spec_digest
        assert len(list((tmp_path / "manifests").iterdir())) == 1

    def test_load_rejects_non_manifests(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"schema": "something-else"}')
        with pytest.raises(ConfigError, match="not a sweep manifest"):
            load_manifest(bogus)
        with pytest.raises(ConfigError, match="cannot read"):
            load_manifest(tmp_path / "missing.json")

    def test_changed_grid_is_refused(self, tmp_path):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        changed = SweepSpec(
            "rtest", "t", "d",
            mechanisms=("fdip",),
            axes=(("llc_latency", (30, 70)),),  # one extra point
        )
        with pytest.raises(ConfigError, match="no longer matches"):
            verify_matches_spec(manifest, changed)

    def test_tampered_cell_config_fails_digest_check(self, tmp_path):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        cell = manifest.cells[0]
        cell.config["core"]["ftq_depth"] = 7
        with pytest.raises(ConfigError, match="digest mismatch"):
            cell.job()

    def test_env_resolved_workload_set_is_frozen(self, tmp_path, monkeypatch):
        """A set that came from REPRO_WORKLOAD_SET must be pinned by name,
        so a resume in a shell *without* the variable re-runs the same
        grid instead of refusing (or silently running the paper set)."""
        monkeypatch.setenv("REPRO_WORKLOAD_SET", "all")
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        assert manifest.workload_set == "all"
        assert len({c.workload for c in manifest.cells}) == 10
        monkeypatch.delenv("REPRO_WORKLOAD_SET")
        loaded = load_manifest(manifest.path)
        verify_matches_spec(loaded, RSPEC)  # must not report a changed grid
        assert len(missing_cells(loaded, ResultCache(tmp_path))) == len(
            manifest.cells
        )


class TestMissingCells:
    def test_cold_cache_misses_everything_in_order(self, tmp_path):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        missing = missing_cells(manifest, ResultCache(tmp_path))
        assert [j.key for j in missing] == [
            (c.workload, c.scale_tok, c.digest) for c in manifest.cells
        ]

    def test_only_the_deleted_subset_is_missing(self, tmp_path):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        cache = ResultCache(tmp_path)
        keep = manifest.cells[::2]
        _fabricate(cache, keep)
        missing = missing_cells(manifest, ResultCache(tmp_path))
        assert [j.key for j in missing] == [
            (c.workload, c.scale_tok, c.digest) for c in manifest.cells[1::2]
        ]

    def test_dense_latency_btb_diff_is_exact(self, tmp_path):
        """The ROADMAP's dense grid, interrupted at ~50%: the resume diff
        must name exactly the uncached half of the 720 cells."""
        spec = get_sweep("dense-latency-btb")
        cells = resolve_cells(spec, "quick", None)
        assert len(cells) == 720
        done, interrupted = cells[::2], cells[1::2]
        _fabricate(ResultCache(tmp_path), done)
        missing = missing_cells(
            load_manifest(write_manifest(tmp_path, spec, "quick", None).path),
            ResultCache(tmp_path),
        )
        assert {j.key for j in missing} == {
            (c.workload, c.scale_tok, c.digest) for c in interrupted
        }
        assert len(missing) == 360


class TestResumeEndToEnd:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path, capsys):
        """Full tiny run → delete half the cached cells (the state an
        interruption leaves) → resume must simulate exactly the missing
        cells and produce a bit-identical merged table."""
        runtime = configure_runtime(cache_dir=tmp_path)
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        full_table = RSPEC.run("mtiny").to_table()
        assert runtime.executed == 12

        loose = sorted((tmp_path / SCHEMA_TAG).rglob("*.json"))
        assert len(loose) == 12
        victims = loose[::2]
        for path in victims:
            path.unlink()

        runner_mod._RUNTIME = None  # a fresh process, effectively
        runtime = configure_runtime(cache_dir=tmp_path)
        missing = missing_cells(load_manifest(manifest.path), runtime.disk)
        assert len(missing) == len(victims) == 6
        runtime.run_many(missing)
        assert runtime.executed == 6  # exactly the missing cells
        assert RSPEC.run("mtiny").to_table() == full_table

        # The CLI resume path on the now-complete cache: nothing to do.
        runner_mod._RUNTIME = None
        capsys.readouterr()
        assert main(["run", "--resume", str(manifest.path), "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "12/12 cells already cached, submitting 0 missing" in out
        assert "resumed 0 of 12 unique jobs, 0 simulated" in out


class TestCli:
    def test_run_with_cache_dir_writes_and_announces_manifest(
        self, tmp_path, capsys
    ):
        # Warm path: populate via a cheap fabricated cache first so the
        # CLI run itself resolves from disk and simulates nothing.
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        _cells_real_results(tmp_path, manifest)
        assert main(
            ["run", "rtest", "--scale", "mtiny",
             "--cache-dir", str(tmp_path), "--no-table"]
        ) == 0
        out = capsys.readouterr().out
        assert "[manifest: " in out and "manifests" in out
        assert manifest.path.exists()

    def test_resume_conflicts_with_name_scale_and_set(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        for extra in (["rtest"], ["--scale", "mtiny"], ["--workload-set", "paper"]):
            assert main(["run", "--resume", str(manifest.path), *extra]) == 2
            assert "from the manifest" in capsys.readouterr().err

    def test_run_without_name_or_resume_errors(self, capsys):
        assert main(["run"]) == 2
        assert "sweep name" in capsys.readouterr().err

    def test_resume_of_changed_grid_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        monkeypatch.setitem(
            SWEEPS,
            "rtest",
            SweepSpec(
                "rtest", "t", "d",
                mechanisms=("fdip",),
                axes=(("llc_latency", (70,)),),
            ),
        )
        assert main(["run", "--resume", str(manifest.path)]) == 2
        assert "no longer matches" in capsys.readouterr().err

    def test_resume_notes_engine_schema_drift(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, RSPEC, "mtiny", None)
        _cells_real_results(tmp_path, manifest)
        record = read_json(manifest.path)
        record["engine_schema"] = "engine-v1-000000000000"
        atomic_write_json(manifest.path, record)
        assert main(["run", "--resume", str(manifest.path), "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "written under engine schema" in out

    def test_spec_digest_is_order_independent(self, tmp_path):
        cells = resolve_cells(RSPEC, "mtiny", None)
        assert cells_digest(cells) == cells_digest(list(reversed(cells)))


def _cells_real_results(cache_dir, manifest) -> None:
    """Fabricated-but-valid records for every cell (no simulation)."""
    cache = ResultCache(cache_dir)
    for cell in manifest.cells:
        cache.put(
            cell.workload,
            cell.scale_tok,
            cell.digest,
            SimulationResult(
                cell.workload, "fdip", {"cycles": 100.0, "retired_instrs": 120.0}
            ),
        )
