"""Tests for SimulationResult metrics and workload profiles/facade."""

import pytest

from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.workloads import (
    ALL_PROFILES,
    clear_workload_cache,
    get_profile,
    load_workload,
    profile_names,
)
from repro.workloads.isa import EntryKind


def result(**raw) -> SimulationResult:
    base = {
        "cycles": 1000,
        "retired_instrs": 2000,
        "squash_btb": 4,
        "squash_cond": 3,
        "squash_target": 1,
        "stall_seq": 100,
        "stall_cond": 50,
        "stall_uncond": 30,
    }
    base.update(raw)
    return SimulationResult(workload="w", mechanism="m", raw=base)


class TestSimulationResult:
    def test_ipc(self):
        assert result().ipc == pytest.approx(2.0)

    def test_ipc_zero_cycles(self):
        assert result(cycles=0).ipc == 0.0

    def test_speedup_over(self):
        fast = result(cycles=500)
        slow = result(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_squash_split(self):
        r = result()
        assert r.squashes_btb == 4
        assert r.squashes_mispredict == 4
        assert r.squashes_total == 8

    def test_per_kilo(self):
        r = result()
        assert r.squashes_per_kilo == pytest.approx(4.0)
        assert r.btb_squashes_per_kilo == pytest.approx(2.0)

    def test_stall_cycles_sum(self):
        assert result().stall_cycles == 180

    def test_stall_by_kind(self):
        kinds = result().stall_cycles_by_kind()
        assert kinds[EntryKind.SEQUENTIAL] == 100
        assert kinds[EntryKind.CONDITIONAL] == 50
        assert kinds[EntryKind.UNCONDITIONAL] == 30

    def test_coverage_over(self):
        base = result(stall_seq=200, stall_cond=0, stall_uncond=0)
        better = result(stall_seq=50, stall_cond=0, stall_uncond=0)
        assert better.coverage_over(base) == pytest.approx(0.75)

    def test_coverage_clamped_non_negative(self):
        base = result(stall_seq=10, stall_cond=0, stall_uncond=0)
        worse = result(stall_seq=100, stall_cond=0, stall_uncond=0)
        assert worse.coverage_over(base) == 0.0

    def test_coverage_zero_baseline(self):
        base = result(stall_seq=0, stall_cond=0, stall_uncond=0)
        assert result().coverage_over(base) == 0.0

    def test_summary_line_mentions_names(self):
        line = result().summary_line()
        assert "w" in line and "m" in line


class TestProfiles:
    def test_six_profiles_in_paper_order(self):
        assert profile_names() == ("nutch", "streaming", "apache", "zeus", "oracle", "db2")

    def test_lookup_case_insensitive(self):
        assert get_profile("DB2").name == "db2"

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigError):
            get_profile("mysql")

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_mixtures_normalized(self, profile):
        assert sum(w for w, _ in profile.bias_mixture) == pytest.approx(1.0)
        assert sum(profile.cond_dist_weights) == pytest.approx(1.0)

    def test_oltp_biggest_footprints(self):
        web_max = max(p.code_kb for p in ALL_PROFILES if p.name not in ("oracle", "db2"))
        assert get_profile("oracle").code_kb > web_max
        assert get_profile("db2").code_kb > web_max

    def test_streaming_smallest(self):
        assert get_profile("streaming").code_kb == min(p.code_kb for p in ALL_PROFILES)

    def test_scaled_shrinks_together(self):
        p = get_profile("apache")
        s = p.scaled(0.5)
        assert s.code_kb == pytest.approx(p.code_kb * 0.5, abs=16)
        assert s.default_trace_instrs == pytest.approx(p.default_trace_instrs * 0.5, abs=1)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            get_profile("apache").scaled(0)

    def test_expected_taken_rate(self):
        p = get_profile("apache")
        assert 0.2 < p.expected_taken_cond_rate < 0.7


class TestWorkloadFacade:
    def test_cache_returns_same_object(self):
        a = load_workload("nutch", scale=0.05)
        b = load_workload("nutch", scale=0.05)
        assert a is b

    def test_different_scale_different_object(self):
        a = load_workload("nutch", scale=0.05)
        b = load_workload("nutch", scale=0.06)
        assert a is not b

    def test_explicit_length(self):
        wl = load_workload("nutch", n_instrs=30_000, scale=0.05)
        assert wl.trace.n_instrs >= 30_000

    def test_warmup_fraction(self):
        wl = load_workload("nutch", scale=0.05)
        expected = int(wl.trace.n_instrs * wl.profile.warmup_frac)
        assert wl.warmup_instrs == expected

    def test_clear_cache(self):
        a = load_workload("nutch", scale=0.05)
        clear_workload_cache()
        b = load_workload("nutch", scale=0.05)
        assert a is not b
        assert a.trace.columns == b.trace.columns  # still deterministic
