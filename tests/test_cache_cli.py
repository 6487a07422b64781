"""Tests for the store lifecycle (:mod:`repro.tagdirs`) and its CLI,
``python -m repro.runtime list|prune``."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.mechanisms import make_config
from repro.core.results import SimulationResult
from repro.runtime import SCHEMA_TAG, ExperimentRuntime, ResultCache, cache
from repro.runtime.__main__ import main
from repro.runtime.cache import ANALYTIC_SCHEMA_TAG
from repro.tagdirs import prune_tags, scan_tags, source_fingerprint
from repro.workloads import (
    TRACE_SCHEMA_TAG,
    clear_workload_cache,
    configure_trace_store,
    get_trace_store,
    load_workload,
    reset_trace_store,
    tracestore,
)

WL = "streaming"
SCALE = 0.05

#: A plausible stale tag: an older major and source fingerprint.
STALE_TAG = "engine-v1-000000000000"


def _populate(cache_dir, n_stale=2):
    """One real record under the current tag + fabricated stale records."""
    rt = ExperimentRuntime(cache_dir=cache_dir)
    rt.run_one(WL, make_config("none"), SCALE)
    stale_dir = cache_dir / STALE_TAG / WL
    stale_dir.mkdir(parents=True)
    for i in range(n_stale):
        (stale_dir / f"s0.05__{i:016x}.json").write_text("{}")


def _exact_tags(cache_dir):
    """The engine tier of :func:`scan_tags` (a run also writes a trace tag)."""
    return [i for i in scan_tags(cache_dir) if i.tier == "exact"]


class TestScanAndPrune:
    def test_scan_reports_tags_current_first(self, tmp_path):
        _populate(tmp_path)
        infos = _exact_tags(tmp_path)
        assert [i.tag for i in infos] == [SCHEMA_TAG, STALE_TAG]
        assert infos[0].current and not infos[1].current
        assert infos[0].records == 1 and infos[1].records == 2
        assert infos[1].size_bytes > 0

    def test_scan_missing_dir_is_empty(self, tmp_path):
        assert scan_tags(tmp_path / "nope") == []

    def test_foreign_directories_never_scanned_or_pruned(self, tmp_path):
        """A mis-pointed --cache-dir must not treat (or delete) arbitrary
        directories as stale schema tags."""
        _populate(tmp_path)
        precious = tmp_path / "src"
        precious.mkdir()
        (precious / "keep.json").write_text("{}")
        assert all(i.tag != "src" for i in scan_tags(tmp_path))
        removed = prune_tags(tmp_path)
        assert [i.tag for i in removed] == [STALE_TAG]
        assert (precious / "keep.json").exists()

    def test_prune_removes_only_stale_tags(self, tmp_path):
        _populate(tmp_path)
        removed = prune_tags(tmp_path)
        assert [i.tag for i in removed] == [STALE_TAG]
        assert not (tmp_path / STALE_TAG).exists()
        assert (tmp_path / SCHEMA_TAG).exists()
        # The surviving record still serves warm hits.
        warm = ExperimentRuntime(cache_dir=tmp_path)
        warm.run_one(WL, make_config("none"), SCALE)
        assert warm.executed == 0

    def test_prune_dry_run_deletes_nothing(self, tmp_path):
        _populate(tmp_path)
        removed = prune_tags(tmp_path, dry_run=True)
        assert [i.tag for i in removed] == [STALE_TAG]
        assert (tmp_path / STALE_TAG).exists()

    def test_prune_specific_tag_can_target_current(self, tmp_path):
        _populate(tmp_path)
        removed = prune_tags(tmp_path, schema_tag=SCHEMA_TAG)
        assert [i.tag for i in removed] == [SCHEMA_TAG]
        assert (tmp_path / STALE_TAG).exists()


def _legacy_shard(wl_dir, records):
    """What an older, compacting cache left in a workload directory."""
    shard = wl_dir / "shard.jsonl"
    shard.write_text("".join(json.dumps(r) + "\n" for r in records))
    (wl_dir / ".compact.lock").touch()
    return shard


class TestLegacyShardLeftovers:
    """A ``shard.jsonl`` and its lock file are not records: never read,
    never consolidated, but their bytes are listed and ``prune`` frees them."""

    def test_shard_in_current_tag_is_inert_and_reclaimable(self, tmp_path):
        from repro.warehouse import connect, read_status, refresh_warehouse

        cache = ResultCache(tmp_path)
        loose = "a" * 64
        cache.put("wl", "0.25", loose, SimulationResult("wl", "none", {"cycles": 1.0}))
        wl_dir = tmp_path / SCHEMA_TAG / "wl"
        shard_only = "b" * 64
        record = {
            "schema": SCHEMA_TAG,
            "workload": "wl",
            "scale": "0.25",
            "config_digest": shard_only,
            "mechanism": "none",
            "raw": {"cycles": 2.0},
        }
        shard = _legacy_shard(wl_dir, [record])

        assert ResultCache(tmp_path).get("wl", "0.25", shard_only) is None
        assert ResultCache(tmp_path).get("wl", "0.25", loose) is not None

        (info,) = scan_tags(tmp_path)
        assert info.current and info.records == 1
        loose_bytes = sum(p.stat().st_size for p in wl_dir.glob("*.json"))
        assert info.size_bytes == loose_bytes + shard.stat().st_size

        assert refresh_warehouse(tmp_path).inserted == 1
        conn = connect(tmp_path)
        try:
            assert read_status(conn).cells == 1
        finally:
            conn.close()

        (removed,) = prune_tags(tmp_path, schema_tag=SCHEMA_TAG)
        assert removed.tag == SCHEMA_TAG
        assert not (tmp_path / SCHEMA_TAG).exists()

    def test_stale_compacted_tag_lists_its_bytes(self, tmp_path, capsys):
        wl_dir = tmp_path / STALE_TAG / WL
        wl_dir.mkdir(parents=True)
        shard = _legacy_shard(wl_dir, [{"schema": STALE_TAG, "raw": {}}] * 10)
        (info,) = scan_tags(tmp_path)
        assert (info.tag, info.records) == (STALE_TAG, 0)
        assert info.size_bytes == shard.stat().st_size > 0
        assert main(["prune", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"removed {STALE_TAG}: 0 records, {info.size_bytes} B" in out
        assert not (tmp_path / STALE_TAG).exists()


class TestCli:
    def test_list_output(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert SCHEMA_TAG in out and STALE_TAG in out
        assert "[current]" in out and "[stale]" in out
        assert "2 stale records reclaimable" in out

    def test_prune_then_list_empty_of_stale(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["prune", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"removed {STALE_TAG}" in out
        assert main(["list", "--cache-dir", str(tmp_path)]) == 0
        assert STALE_TAG not in capsys.readouterr().out

    def test_cache_dir_from_env(self, tmp_path, capsys, monkeypatch):
        _populate(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["list"]) == 0
        assert SCHEMA_TAG in capsys.readouterr().out

    def test_no_cache_dir_is_an_error(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["list"]) == 2
        assert "cache directory" in capsys.readouterr().err


#: A stale tag of each store, as older code would have left them.
STALE_TAGS = {
    "exact": STALE_TAG,
    "analytic": "analytic-v1-000000000000",
    "trace": "trace-v0-000000000000",
}


class TestEveryStore:
    """One ``list``/``prune`` covers the engine, analytic and trace stores."""

    @pytest.fixture
    def stores(self, tmp_path):
        """A current and a stale tag of each store in one cache dir."""
        clear_workload_cache()
        configure_trace_store(tmp_path)
        try:
            load_workload("streaming", scale=SCALE)
        finally:
            reset_trace_store()
            clear_workload_cache()
        result = SimulationResult(WL, "none", {"cycles": 1.0})
        ResultCache(tmp_path).put(WL, "0.05", "a" * 64, result)
        ResultCache(tmp_path, ANALYTIC_SCHEMA_TAG).put(WL, "0.05", "a" * 64, result)
        for tag in STALE_TAGS.values():
            (tmp_path / tag).mkdir()
            (tmp_path / tag / "old.json").write_text("{}")
        return tmp_path

    def test_scan_sees_every_tier(self, stores):
        infos = scan_tags(stores)
        current = {i.tier: i.tag for i in infos if i.current}
        assert current == {
            "exact": SCHEMA_TAG,
            "analytic": ANALYTIC_SCHEMA_TAG,
            "trace": TRACE_SCHEMA_TAG,
        }
        assert {i.tier: i.tag for i in infos if not i.current} == STALE_TAGS
        assert [i.records for i in infos if i.tier == "trace"] == [1, 0]

    def test_list_shows_tier_on_each_row(self, stores, capsys):
        assert main(["list", "--cache-dir", str(stores)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        tiers = {row[1]: (row[0], row[-1]) for row in rows if len(row) == 7}
        assert tiers[TRACE_SCHEMA_TAG] == ("trace", "[current]")
        assert tiers[STALE_TAGS["trace"]] == ("trace", "[stale]")
        assert tiers[ANALYTIC_SCHEMA_TAG] == ("analytic", "[current]")
        assert tiers[SCHEMA_TAG] == ("exact", "[current]")

    def test_prune_removes_every_stale_tag_in_one_call(self, stores, capsys):
        assert main(["prune", "--cache-dir", str(stores)]) == 0
        out = capsys.readouterr().out
        for tag in STALE_TAGS.values():
            assert f"removed {tag}: " in out
            assert not (stores / tag).exists()
        for tag in (SCHEMA_TAG, ANALYTIC_SCHEMA_TAG, TRACE_SCHEMA_TAG):
            assert (stores / tag).is_dir()

    def test_schema_tag_forces_a_cold_trace_store(self, stores, capsys):
        argv = ["prune", "--cache-dir", str(stores), "--schema-tag", TRACE_SCHEMA_TAG]
        assert main(argv) == 0
        assert f"removed {TRACE_SCHEMA_TAG}: 1 records" in capsys.readouterr().out
        assert {i.tag for i in scan_tags(stores) if i.current} == {
            SCHEMA_TAG,
            ANALYTIC_SCHEMA_TAG,
        }
        configure_trace_store(stores)
        try:
            load_workload("streaming", scale=SCALE)  # a cold build, stored again
            assert get_trace_store().hits == 0
        finally:
            reset_trace_store()
            clear_workload_cache()
        rebuilt = [i for i in scan_tags(stores) if i.tier == "trace" and i.current]
        assert [(i.tag, i.records) for i in rebuilt] == [(TRACE_SCHEMA_TAG, 1)]


class TestTagScope:
    """Which sources the engine and trace-store tags fingerprint.

    Each case edits a copy of the ``repro`` package, so the live tags
    (and every cache keyed on them) are untouched.
    """

    @pytest.fixture
    def tree(self, tmp_path):
        package = Path(cache.__file__).resolve().parents[1]
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    @staticmethod
    def _tags(root):
        return (
            source_fingerprint(cache._engine_sources(root), root=root),
            source_fingerprint(tracestore._trace_sources(root), root=root),
        )

    @staticmethod
    def _append_comment(path):
        path.write_text(path.read_text() + "\n# an edit\n")

    def test_copy_fingerprints_like_the_live_tree(self, tree):
        assert self._tags(tree) == (
            SCHEMA_TAG.rsplit("-", 1)[1],
            tracestore.TRACE_SCHEMA_TAG.rsplit("-", 1)[1],
        )

    @pytest.mark.parametrize(
        "rel",
        ["devtools/rules.py", "workloads/__main__.py", "envopts.py", "tagdirs.py"],
    )
    def test_tooling_edit_keeps_both_tags(self, tree, rel):
        before = self._tags(tree)
        self._append_comment(tree / rel)
        assert self._tags(tree) == before

    def test_workload_edit_moves_both_tags(self, tree):
        before = self._tags(tree)
        self._append_comment(tree / "workloads" / "builder.py")
        after = self._tags(tree)
        assert after[0] != before[0]
        assert after[1] != before[1]
