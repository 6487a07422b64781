"""Tests for the experiment runtime: hashing, disk cache, parallel runner."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariants import digest_blind_leaves
from repro.config import SimConfig
from repro.core.engine import FrontEndEngine
from repro.core.mechanisms import make_config
from repro.runtime import (
    SCHEMA_TAG,
    ExperimentRuntime,
    ResultCache,
    SimJob,
    canonicalize,
    config_digest,
    get_runtime,
    scale_token,
)
from repro.workloads.profiles import get_profile

#: Tiny but real workload for runtime tests.
WL = "streaming"
SCALE = 0.05


def _jobs(*configs, workload=WL, scale=SCALE):
    return [SimJob(workload, cfg, scale) for cfg in configs]


class TestConfigDigest:
    def test_equal_configs_equal_digest(self):
        assert config_digest(make_config("boomerang")) == config_digest(
            make_config("boomerang")
        )

    def test_every_layer_contributes(self):
        """Every leaf field of both digested trees must change the digest.

        The old cache key was a hand-picked field tuple that missed knobs;
        this walks the trees, so a new field is covered the day it lands.
        """
        for root in (SimConfig(), get_profile("apache")):
            assert digest_blind_leaves(root) == []

    def test_canonicalize_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_scale_token_canonical(self):
        assert scale_token(0.25) == scale_token(0.250) == "0.25"


class TestRunCachedSoundness:
    def test_unlisted_field_no_longer_collides(self):
        """Regression: the old key ignored core.data_stall_cycles, so these
        two configs returned each other's cached results."""
        cfg_a = make_config("none")
        cfg_b = replace(cfg_a, core=replace(cfg_a.core, data_stall_cycles=1))
        a = get_runtime().run_one(WL, cfg_a, workload_scale=SCALE)
        b = get_runtime().run_one(WL, cfg_b, workload_scale=SCALE)
        assert a is not b
        assert a.raw["cycles"] != b.raw["cycles"]

    def test_memo_hit_is_identical_object(self):
        cfg = make_config("none")
        rt = ExperimentRuntime()
        assert rt.run_one(WL, cfg, SCALE) is rt.run_one(WL, cfg, SCALE)


class TestParallelEquivalence:
    def test_jobs2_bit_identical_to_serial(self):
        configs = [
            make_config("none"),
            make_config("next_line"),
            make_config("boomerang"),
            make_config("fdip"),
        ]
        serial = ExperimentRuntime(jobs=1).run_many(_jobs(*configs))
        parallel = ExperimentRuntime(jobs=2).run_many(_jobs(*configs))
        assert len(serial) == len(parallel) == len(configs)
        for s, p in zip(serial, parallel):
            assert s.workload == p.workload
            assert s.mechanism == p.mechanism
            assert s.raw == p.raw

    def test_run_many_dedupes_and_preserves_order(self):
        cfg = make_config("none")
        rt = ExperimentRuntime()
        out = rt.run_many(_jobs(cfg, cfg, cfg))
        assert rt.executed == 1
        assert out[0] is out[1] is out[2]


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cfg = make_config("boomerang")
        cold = ExperimentRuntime(cache_dir=tmp_path)
        cold_result = cold.run_one(WL, cfg, SCALE)
        stored = list((tmp_path / SCHEMA_TAG).rglob("*.json"))
        assert len(stored) == 1

        warm = ExperimentRuntime(cache_dir=tmp_path)
        warm_result = warm.run_one(WL, cfg, SCALE)
        assert warm.executed == 0 and warm.disk.hits == 1
        assert warm_result.raw == cold_result.raw
        assert warm_result.mechanism == cold_result.mechanism

    def test_warm_run_never_builds_an_engine(self, tmp_path, monkeypatch):
        cfg = make_config("none")
        ExperimentRuntime(cache_dir=tmp_path).run_one(WL, cfg, SCALE)

        def _boom(self, *a, **k):
            raise AssertionError("warm run must not simulate")

        monkeypatch.setattr(FrontEndEngine, "run", _boom)
        warm = ExperimentRuntime(cache_dir=tmp_path)
        result = warm.run_one(WL, cfg, SCALE)
        assert result.raw["retired_instrs"] > 0

    def test_schema_or_digest_mismatch_is_a_miss(self, tmp_path):
        cfg = make_config("none")
        rt = ExperimentRuntime(cache_dir=tmp_path)
        rt.run_one(WL, cfg, SCALE)
        path = next((tmp_path / SCHEMA_TAG).rglob("*.json"))
        path.write_text(path.read_text().replace(SCHEMA_TAG, "engine-v0"))
        fresh = ResultCache(tmp_path)
        assert fresh.get(WL, scale_token(SCALE), config_digest(cfg)) is None
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 0, 1)

    def test_mismatch_under_a_matching_checksum_is_corrupt(self, tmp_path):
        # A record rewritten whole (checksum included) for another schema
        # passes the crc32 but still fails the schema check.
        from repro.runtime.cache import _record_crc

        cfg = make_config("none")
        ExperimentRuntime(cache_dir=tmp_path).run_one(WL, cfg, SCALE)
        path = next((tmp_path / SCHEMA_TAG).rglob("*.json"))
        record = json.loads(path.read_text())
        record["schema"] = "engine-v0"
        record["crc32"] = _record_crc(record)
        path.write_text(json.dumps(record))
        fresh = ResultCache(tmp_path)
        assert fresh.get(WL, scale_token(SCALE), config_digest(cfg)) is None
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 0, 1)

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cfg = make_config("none")
        rt = ExperimentRuntime(cache_dir=tmp_path)
        rt.run_one(WL, cfg, SCALE)
        path = next((tmp_path / SCHEMA_TAG).rglob("*.json"))
        path.write_text("{ truncated")
        fresh = ResultCache(tmp_path)
        assert fresh.get(WL, scale_token(SCALE), config_digest(cfg)) is None
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 0, 1)

    def test_absent_record_is_a_plain_miss(self, tmp_path):
        fresh = ResultCache(tmp_path)
        cfg = make_config("none")
        assert fresh.get(WL, scale_token(SCALE), config_digest(cfg)) is None
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 1, 0)

    def test_valid_json_non_dict_record_is_a_miss(self, tmp_path):
        # A bare JSON array parses fine but is not a record; it used to
        # raise AttributeError inside get() instead of reading as a miss.
        cfg = make_config("none")
        rt = ExperimentRuntime(cache_dir=tmp_path)
        rt.run_one(WL, cfg, SCALE)
        path = next((tmp_path / SCHEMA_TAG).rglob("*.json"))
        path.write_text('["not", "a", "record"]')
        fresh = ResultCache(tmp_path)
        assert fresh.get(WL, scale_token(SCALE), config_digest(cfg)) is None
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 0, 1)

    def test_parallel_batch_populates_disk(self, tmp_path):
        configs = [make_config("none"), make_config("next_line")]
        rt = ExperimentRuntime(jobs=2, cache_dir=tmp_path)
        rt.run_many(_jobs(*configs))
        assert len(list((tmp_path / SCHEMA_TAG).rglob("*.json"))) == 2


class TestDamagedResultRecords:
    """A damaged record must end as a counted corrupt miss, never as a
    different result. The only other outcome is a damage that leaves the
    JSON meaning the same (``1e-05`` read as ``1E-05``): then the record
    is served, unchanged."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("results")
        key = (WL, scale_token(SCALE), config_digest(make_config("none")))
        rt = ExperimentRuntime(cache_dir=cache_dir)
        result = rt.run_one(WL, make_config("none"), SCALE)
        path = next((cache_dir / SCHEMA_TAG).rglob("*.json"))
        return cache_dir, key, path, path.read_bytes(), result

    def _check(self, stored, blob):
        cache_dir, key, path, original, result = stored
        path.write_bytes(blob)
        try:
            cache = ResultCache(cache_dir)
            got = cache.get(*key)
            if got is None:
                assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 1)
            else:
                assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)
                assert (got.mechanism, got.raw) == (result.mechanism, result.raw)
        finally:
            path.write_bytes(original)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_flipped_byte(self, stored, data):
        original = stored[3]
        index = data.draw(st.integers(0, len(original) - 1), label="index")
        mask = data.draw(st.integers(1, 255), label="mask")
        blob = bytearray(original)
        blob[index] ^= mask
        self._check(stored, bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated(self, stored, data):
        original = stored[3]
        keep = data.draw(st.integers(0, len(original) - 1), label="keep")
        self._check(stored, original[:keep])


class TestOptionPrecedence:
    """Explicit kwargs beat REPRO_* beat defaults — resolve_options is the
    single place that rule lives (and the CLIs forward flags as kwargs)."""

    @pytest.fixture(autouse=True)
    def _isolated_global_runtime(self, monkeypatch):
        from repro.runtime import runner

        monkeypatch.setattr(runner, "_RUNTIME", None)

    def test_defaults(self, monkeypatch):
        from repro.runtime import resolve_options

        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_BACKEND"):
            monkeypatch.delenv(var, raising=False)
        options = resolve_options()
        assert (options.jobs, options.cache_dir, options.backend) == (1, None, "auto")

    def test_env_beats_defaults(self, monkeypatch, tmp_path):
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        options = resolve_options()
        assert options.jobs == 3
        assert options.cache_dir == str(tmp_path)
        assert options.backend == "serial"

    def test_explicit_kwargs_beat_env(self, monkeypatch, tmp_path):
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        monkeypatch.setenv("REPRO_BACKEND", "broker")
        options = resolve_options(jobs=2, cache_dir=tmp_path, backend="serial")
        assert options.jobs == 2
        assert options.cache_dir == str(tmp_path)
        assert options.backend == "serial"

    def test_explicit_kwarg_shields_stale_env(self, monkeypatch):
        """A malformed REPRO_* value must not break an explicit choice —
        the variable is not even read when the kwarg is given."""
        from repro.runtime import configure_runtime

        monkeypatch.setenv("REPRO_JOBS", "bogus")
        monkeypatch.setenv("REPRO_BACKEND", "bogus-backend")
        runtime = configure_runtime(jobs=2, backend="pool")
        assert runtime.jobs == 2
        assert runtime.backend == "pool"

    def test_stale_env_backend_lists_valid_names(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.runtime import BACKEND_NAMES, resolve_options

        monkeypatch.setenv("REPRO_BACKEND", "bogus-backend")
        with pytest.raises(ConfigError) as err:
            resolve_options()
        for name in BACKEND_NAMES:
            assert name in str(err.value)

    def test_invalid_env_jobs_still_rejected_when_consulted(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_JOBS", "zero point five")
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            resolve_options()

    def test_fidelity_defaults(self, monkeypatch):
        from repro.runtime import resolve_options

        for var in (
            "REPRO_FIDELITY",
            "REPRO_ANALYTIC_ANCHORS",
            "REPRO_ANALYTIC_MAX_ERR",
        ):
            monkeypatch.delenv(var, raising=False)
        options = resolve_options()
        assert options.fidelity == "exact"
        assert options.anchors == "3x2"
        assert options.max_rel_err == 0.10

    def test_fidelity_env_beats_defaults(self, monkeypatch):
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_FIDELITY", "hybrid")
        monkeypatch.setenv("REPRO_ANALYTIC_ANCHORS", "4x2")
        monkeypatch.setenv("REPRO_ANALYTIC_MAX_ERR", "0.25")
        options = resolve_options()
        assert options.fidelity == "hybrid"
        assert options.anchors == "4x2"
        assert options.max_rel_err == 0.25

    def test_fidelity_explicit_beats_env(self, monkeypatch):
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_FIDELITY", "hybrid")
        monkeypatch.setenv("REPRO_ANALYTIC_ANCHORS", "4x3")
        monkeypatch.setenv("REPRO_ANALYTIC_MAX_ERR", "0.25")
        options = resolve_options(
            fidelity="analytic", anchors="3x2", max_rel_err=0.05
        )
        assert options.fidelity == "analytic"
        assert options.anchors == "3x2"
        assert options.max_rel_err == 0.05

    def test_fidelity_explicit_shields_stale_env(self, monkeypatch):
        """Malformed REPRO_ANALYTIC_* values are not even read when the
        corresponding kwarg is given."""
        from repro.runtime import configure_runtime

        monkeypatch.setenv("REPRO_FIDELITY", "bogus-tier")
        monkeypatch.setenv("REPRO_ANALYTIC_ANCHORS", "not-a-grid")
        monkeypatch.setenv("REPRO_ANALYTIC_MAX_ERR", "many")
        runtime = configure_runtime(
            fidelity="analytic", anchors="3x2", max_rel_err=0.2
        )
        assert runtime.fidelity == "analytic"
        assert runtime.anchors == "3x2"
        assert runtime.max_rel_err == 0.2

    def test_stale_env_fidelity_lists_valid_names(self, monkeypatch):
        from repro.analytic import FIDELITY_NAMES
        from repro.errors import ConfigError
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_FIDELITY", "bogus-tier")
        with pytest.raises(ConfigError) as err:
            resolve_options()
        for name in FIDELITY_NAMES:
            assert name in str(err.value)

    def test_invalid_env_anchors_rejected_when_consulted(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_ANALYTIC_ANCHORS", "1x1")
        with pytest.raises(ConfigError):
            resolve_options()

    def test_invalid_env_max_err_rejected_when_consulted(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.runtime import resolve_options

        monkeypatch.setenv("REPRO_ANALYTIC_MAX_ERR", "many")
        with pytest.raises(ConfigError, match="REPRO_ANALYTIC_MAX_ERR"):
            resolve_options()
        monkeypatch.setenv("REPRO_ANALYTIC_MAX_ERR", "1.5")
        with pytest.raises(ConfigError, match="REPRO_ANALYTIC_MAX_ERR"):
            resolve_options()


class TestEngineCounters:
    def test_ftq_flushes_surfaced(self):
        """Squash accounting is externally observable via ftq_flushes."""
        res = get_runtime().run_one(WL, make_config("none"), workload_scale=SCALE)
        squashes = (
            res.raw["squash_btb"] + res.raw["squash_cond"] + res.raw["squash_target"]
        )
        assert res.raw["ftq_flushes"] == squashes > 0
