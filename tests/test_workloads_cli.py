"""Tests for the ``python -m repro.workloads`` CLI."""

from __future__ import annotations

import pytest

from repro.workloads import (
    TRACE_SCHEMA_TAG,
    clear_workload_cache,
    configure_trace_store,
    load_workload,
    reset_trace_store,
)
from repro.workloads.__main__ import main


@pytest.fixture
def warm_store(tmp_path):
    clear_workload_cache()
    configure_trace_store(tmp_path)
    load_workload("streaming", scale=0.05)
    yield tmp_path
    reset_trace_store()
    clear_workload_cache()


class TestProfileCommands:
    def test_list_default_is_paper_set(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOAD_SET", raising=False)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "db2" in out and "microrpc" not in out

    def test_list_all_includes_extended(self, capsys):
        assert main(["list", "--set", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("microrpc", "interp", "mlserve", "compilerpass"):
            assert name in out

    def test_list_honours_env_selector(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_SET", "extended")
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "interp" in out and "db2" not in out

    def test_show_prints_every_parameter_and_digest(self, capsys):
        assert main(["show", "interp"]) == 0
        out = capsys.readouterr().out
        assert "digest" in out
        assert "indirect_jump_frac" in out and "0.3" in out

    def test_bad_workload_set_env_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_SET", "bogus")
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "REPRO_WORKLOAD_SET" in err

    def test_show_unknown_profile_errors(self, capsys):
        assert main(["show", "mysql"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown workload 'mysql'" in err

    def test_summarize_prints_calibration_stats(self, capsys):
        assert main(["summarize", "streaming", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for field in ("taken_rate", "cond_frac", "footprint_kb", "n_records"):
            assert field in out


class TestStoreCommands:
    def test_store_list_shows_current_tag(self, capsys, warm_store):
        assert main(["store-list", "--cache-dir", str(warm_store)]) == 0
        out = capsys.readouterr().out
        assert TRACE_SCHEMA_TAG in out and "current" in out

    def test_store_list_empty(self, capsys, tmp_path):
        assert main(["store-list", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_store_list_requires_a_directory(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["store-list"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no store directory" in err

    def test_store_prune_nothing_stale(self, capsys, warm_store):
        assert main(["store-prune", "--cache-dir", str(warm_store)]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_store_prune_removes_stale_tag(self, capsys, warm_store):
        stale = warm_store / "trace-v0-000000000000"
        stale.mkdir()
        (stale / "old.wkld").write_bytes(b"x")
        assert main(["store-prune", "--cache-dir", str(warm_store)]) == 0
        assert "removed trace-v0-000000000000" in capsys.readouterr().out
        assert not stale.exists()
        assert (warm_store / TRACE_SCHEMA_TAG).exists()

    def test_store_prune_dry_run(self, capsys, warm_store):
        stale = warm_store / "trace-v0-000000000000"
        stale.mkdir()
        assert main(["store-prune", "--cache-dir", str(warm_store), "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert stale.exists()

    def test_env_resolution(self, capsys, warm_store, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_store))
        assert main(["store-list"]) == 0
        assert TRACE_SCHEMA_TAG in capsys.readouterr().out
