"""Tests for the persistent content-addressed workload store."""

from __future__ import annotations

import json
import re
import zlib
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tagdirs import prune_tags, scan_tags
from repro.workloads import (
    TRACE_SCHEMA_TAG,
    TraceStore,
    clear_workload_cache,
    configure_trace_store,
    get_profile,
    get_trace_store,
    load_workload,
    profile_digest,
    reset_trace_store,
)
from repro.workloads.builder import build_cfg
from repro.workloads.cfg import CFG_ARRAYS
from repro.workloads.isa import block_of
from repro.workloads.trace import generate_trace
from repro.workloads.tracestore import _MAGIC, _PREFIX, trace_seed
from test_build_digests import cfg_digest, trace_digest

SCALE = 0.05


@pytest.fixture
def store_dir(tmp_path):
    """Point the process trace store at a temp dir; restore env resolution."""
    clear_workload_cache()
    configure_trace_store(tmp_path)
    yield tmp_path
    reset_trace_store()
    clear_workload_cache()


@pytest.fixture(scope="module")
def small_profile():
    return get_profile("apache").scaled(SCALE)


@pytest.fixture(scope="module")
def small_build(small_profile):
    cfg = build_cfg(small_profile)
    length = small_profile.default_trace_instrs
    trace = generate_trace(cfg, length, seed=trace_seed(small_profile))
    return small_profile, length, cfg, trace


class TestProfileDigest:
    def test_content_not_name(self, small_profile):
        same_name = replace(small_profile, avg_bb_instrs=9.0)
        assert same_name.name == small_profile.name
        assert profile_digest(same_name) != profile_digest(small_profile)

    def test_every_field_contributes(self, small_profile):
        tweaked = replace(small_profile, warmup_frac=0.31)
        assert profile_digest(tweaked) != profile_digest(small_profile)

    def test_deterministic(self, small_profile):
        copy = replace(small_profile)
        assert profile_digest(copy) == profile_digest(small_profile)


class TestStoreRoundTrip:
    def test_get_returns_bit_identical_build(self, tmp_path, small_build):
        profile, length, cfg, trace = small_build
        store = TraceStore(tmp_path)
        assert store.get(profile, length) is None  # cold
        store.put(profile, length, cfg, trace)
        loaded = store.get(profile, length)
        assert loaded is not None
        cfg2, trace2 = loaded
        assert trace2.columns == trace.columns
        assert trace2.n_instrs == trace.n_instrs
        assert trace2.seed == trace.seed
        assert cfg2.blocks == cfg.blocks
        assert cfg2.entry == cfg.entry
        assert cfg2.functions == cfg.functions
        assert (store.hits, store.misses, store.corrupt, store.stores) == (1, 1, 0, 1)

    def test_full_scale_apache_keeps_digests(self, tmp_path):
        """The largest stock CFG (apache at scale 1.0) survives put -> get."""
        profile = get_profile("apache")
        length = profile.default_trace_instrs
        cfg = build_cfg(profile)
        trace = generate_trace(cfg, length, seed=trace_seed(profile))
        store = TraceStore(tmp_path)
        store.put(profile, length, cfg, trace)
        loaded_cfg, loaded_trace = store.get(profile, length)
        assert cfg_digest(loaded_cfg) == cfg_digest(cfg)
        assert trace_digest(loaded_trace) == trace_digest(trace)
        assert list(loaded_cfg.blocks) == list(cfg.blocks)
        assert all(
            loaded_cfg.branches_in_cache_block(b) == cfg.branches_in_cache_block(b)
            for b in {block_of(blk.branch_pc) for blk in cfg.blocks.values()}
        )

    def test_other_length_is_a_miss(self, tmp_path, small_build):
        profile, length, cfg, trace = small_build
        store = TraceStore(tmp_path)
        store.put(profile, length, cfg, trace)
        assert store.get(profile, length + 1) is None

    def test_other_profile_content_is_a_miss(self, tmp_path, small_build):
        profile, length, cfg, trace = small_build
        store = TraceStore(tmp_path)
        store.put(profile, length, cfg, trace)
        assert store.get(replace(profile, seed=999), length) is None

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "garbage", "bad_magic"],
        ids=str,
    )
    def test_corrupt_record_is_a_miss(self, tmp_path, small_build, corruption):
        profile, length, cfg, trace = small_build
        store = TraceStore(tmp_path)
        store.put(profile, length, cfg, trace)
        (record,) = store.root.glob("*.wkld")
        blob = record.read_bytes()
        if corruption == "truncate":
            record.write_bytes(blob[: len(blob) // 2])
        elif corruption == "garbage":
            record.write_bytes(b"\x00" * 128)
        else:
            record.write_bytes(b"X" + blob[1:])
        assert store.get(profile, length) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 0, 1)

    def test_absent_record_is_a_plain_miss(self, tmp_path, small_build):
        profile, length, _, _ = small_build
        store = TraceStore(tmp_path)
        assert store.get(profile, length) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 0)


#: Leading bytes of a record that hold its magic, prefix and header start.
_HEAD_BYTES = 512


@pytest.fixture(scope="module")
def stored_record(tmp_path_factory, small_build):
    """A real record's bytes, and where its store expects to find them."""
    profile, length, cfg, trace = small_build
    store = TraceStore(tmp_path_factory.mktemp("record"))
    store.put(profile, length, cfg, trace)
    (path,) = store.root.glob("*.wkld")
    return path, path.read_bytes()


class TestDamagedRecords:
    """A damaged record must end as a counted corrupt miss, never as a build."""

    def _assert_corrupt(self, stored_record, small_build, blob):
        profile, length, _, _ = small_build
        path, original = stored_record
        path.write_bytes(blob)
        try:
            store = TraceStore(path.parents[1])
            assert store.get(profile, length) is None
            assert (store.hits, store.misses, store.corrupt) == (0, 0, 1)
        finally:
            path.write_bytes(original)

    @staticmethod
    def _offsets(size: int) -> st.SearchStrategy[int]:
        """Anywhere in the record, or (as often) in its first bytes: the
        magic, the prefix and the JSON header are a small share of it."""
        return st.one_of(st.integers(0, _HEAD_BYTES), st.integers(0, size - 1))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_byte(self, stored_record, small_build, data):
        _, original = stored_record
        index = data.draw(self._offsets(len(original)), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        blob = bytearray(original)
        blob[index] ^= mask
        self._assert_corrupt(stored_record, small_build, bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated(self, stored_record, small_build, data):
        _, original = stored_record
        keep = data.draw(self._offsets(len(original)), label="keep")
        self._assert_corrupt(stored_record, small_build, original[:keep])


#: The typecodes records held before columns were narrowed.
_OLD_WIDTHS = {"I": "q", "H": "i"}


def _write_old_width_record(cache_dir, profile, length, cfg, trace):
    """Write ``(cfg, trace)`` as the previous record layout did: pcs in
    'q', sizes in 'i', a stored next column, under the ``trace-v3`` tag."""
    old_tag = re.sub(r"^trace-v\d+", "trace-v3", TRACE_SCHEMA_TAG)
    start, ninstr, kind, taken, entry = trace.columns
    named = [
        ("trace.start", array("q", start[:-1])),
        ("trace.ninstr", array("i", ninstr)),
        ("trace.kind", kind),
        ("trace.taken", taken),
        ("trace.next", array("q", start[1:])),
        ("trace.entry", entry),
    ] + [
        (name, array(_OLD_WIDTHS.get(tc, tc), arr))
        for (name, tc), arr in zip(CFG_ARRAYS, cfg.arrays)
    ]
    header = json.dumps({
        "schema": old_tag,
        "profile_digest": profile_digest(profile),
        "profile_name": profile.name,
        "length": length,
        "trace_seed": trace.seed,
        "n_instrs": trace.n_instrs,
        "cfg_name": cfg.name,
        "cfg_entry": cfg.entry,
        "function_names": cfg.function_names,
        "arrays": [[name, arr.typecode, len(arr) * arr.itemsize] for name, arr in named],
    }).encode()
    crc = zlib.crc32(header)
    for _, arr in named:
        crc = zlib.crc32(arr, crc)
    current = TraceStore(cache_dir)._path(profile.name, profile_digest(profile), length)
    path = cache_dir / old_tag / current.name
    path.parent.mkdir(parents=True)
    path.write_bytes(
        _MAGIC + _PREFIX.pack(len(header), crc) + header
        + b"".join(arr.tobytes() for _, arr in named)
    )
    return path


class TestOldWidthRecords:
    def test_old_width_record_is_a_miss_not_corrupt(self, tmp_path, small_build):
        profile, length, cfg, trace = small_build
        old = _write_old_width_record(tmp_path, profile, length, cfg, trace)
        store = TraceStore(tmp_path)
        assert store.get(profile, length) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 0)
        (info,) = [i for i in scan_tags(tmp_path) if i.tag == old.parent.name]
        assert not info.current and info.records == 1
        assert [i.tag for i in prune_tags(tmp_path)] == [old.parent.name]

    def test_record_holds_nine_bytes_per_trace_record(self, tmp_path, small_build):
        profile, length, cfg, trace = small_build
        store = TraceStore(tmp_path)
        store.put(profile, length, cfg, trace)
        (path,) = store.root.glob("*.wkld")
        old = _write_old_width_record(tmp_path, profile, length, cfg, trace)
        trace_bytes = sum(len(col) * col.itemsize for col in trace.columns)
        assert trace_bytes == 9 * len(trace) + 4  # and the final next pc
        # 14 B fewer per trace record than the 23 B layout, and the CFG shrinks too.
        assert path.stat().st_size < old.stat().st_size - 14 * len(trace)


class TestLoadWorkloadIntegration:
    def test_cold_build_populates_warm_load_hits(self, store_dir):
        first = load_workload("streaming", scale=SCALE)
        store = get_trace_store()
        assert store.stores == 1 and store.hits == 0
        clear_workload_cache()  # drop the memo: next load must come off disk
        second = load_workload("streaming", scale=SCALE)
        assert store.hits == 1
        assert second.trace.columns == first.trace.columns
        assert second.cfg.blocks == first.cfg.blocks

    def test_memo_keyed_by_content_not_name(self, store_dir):
        """Regression: a caller profile sharing a stock name must never be
        served the stock build (the old ``(name, scale, length)`` memo did
        exactly that)."""
        stock = get_profile("apache").scaled(SCALE)
        custom = replace(stock, avg_bb_instrs=9.0, loop_frac=0.2)
        stock_wl = load_workload(stock)
        custom_wl = load_workload(custom)
        assert stock_wl is not custom_wl
        assert custom_wl.trace.columns != stock_wl.trace.columns
        # And the memo returns each its own build, in either order.
        assert load_workload(custom) is custom_wl
        assert load_workload(stock) is stock_wl

    def test_disabled_without_configuration(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_trace_store()
        assert get_trace_store() is None

    def test_env_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_trace_store()
        store = get_trace_store()
        assert store is not None and store.root.parent == tmp_path
        reset_trace_store()

    def test_explicit_configure_beats_env(self, tmp_path, monkeypatch):
        """configure_trace_store overrides the environment, and the
        effective directory is exposed so the pool runner can re-export it
        to spawn-started workers."""
        from repro.workloads.workload import trace_store_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        configure_trace_store(tmp_path / "explicit")
        try:
            assert trace_store_dir() == str(tmp_path / "explicit")
            assert get_trace_store().root.parent == tmp_path / "explicit"
        finally:
            reset_trace_store()
        assert trace_store_dir() == str(tmp_path / "env")

    def test_empty_env_var_means_explicitly_disabled(self, tmp_path, monkeypatch):
        """REPRO_TRACE_STORE='' (the pool runner's export of an explicit
        disable) must not fall back to REPRO_CACHE_DIR."""
        from repro.workloads.workload import trace_store_dir

        monkeypatch.setenv("REPRO_TRACE_STORE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_trace_store()
        assert trace_store_dir() is None
        assert get_trace_store() is None

    def test_env_value_export_tristate(self, tmp_path):
        from repro.workloads.workload import trace_store_env_value

        try:
            assert trace_store_env_value() is None  # env-driven: no export
            configure_trace_store(tmp_path)
            assert trace_store_env_value() == str(tmp_path)
            configure_trace_store(None)
            assert trace_store_env_value() == ""  # explicit disable
        finally:
            reset_trace_store()


class TestLifecycle:
    def test_scan_counts_current_tag(self, store_dir):
        load_workload("zeus", scale=SCALE)
        infos = scan_tags(store_dir)
        assert [i.tag for i in infos] == [TRACE_SCHEMA_TAG]
        assert infos[0].current and infos[0].records == 1
        assert infos[0].size_bytes > 0

    def test_scan_ignores_foreign_directories(self, store_dir):
        (store_dir / "engine-v1-0123456789ab").mkdir()  # result-cache tag
        (store_dir / "random-stuff").mkdir()
        load_workload("zeus", scale=SCALE)
        infos = scan_tags(store_dir)
        assert [i.tag for i in infos if i.tier == "trace"] == [TRACE_SCHEMA_TAG]
        assert [i.tier for i in infos] == ["trace", "exact"]

    def test_prune_removes_stale_keeps_current(self, store_dir):
        load_workload("zeus", scale=SCALE)
        stale = store_dir / "trace-v0-000000000000"
        stale.mkdir()
        (stale / "old.wkld").write_bytes(b"x")
        removed = prune_tags(store_dir)
        assert [i.tag for i in removed] == ["trace-v0-000000000000"]
        assert not stale.exists()
        assert (store_dir / TRACE_SCHEMA_TAG).exists()

    def test_prune_dry_run_deletes_nothing(self, store_dir):
        stale = store_dir / "trace-v0-000000000000"
        stale.mkdir()
        removed = prune_tags(store_dir, dry_run=True)
        assert [i.tag for i in removed] == ["trace-v0-000000000000"]
        assert stale.exists()

    def test_prune_specific_tag_can_force_cold(self, store_dir):
        load_workload("zeus", scale=SCALE)
        removed = prune_tags(store_dir, schema_tag=TRACE_SCHEMA_TAG)
        assert [i.tag for i in removed] == [TRACE_SCHEMA_TAG]
        assert scan_tags(store_dir) == []
