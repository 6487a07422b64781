"""The analytic fidelity tier: model, planner, store isolation, runtime.

The pivotal guarantees pinned here:

* **bound honesty** — for every mechanism, each analytic cell's speedup
  error against exact ground truth stays within the model's own reported
  bound (composed across numerator and denominator);
* **cache isolation** — analytic records can never satisfy exact-fidelity
  lookups, and exact records pass through the analytic store untouched;
* **reduction** — on a dense-grid column the planner dispatches >= 5x
  fewer exact-engine cells than the grid has.

Ground truth runs every grid cell on the exact engine; the analytic
runtime gets its *own* stores, so its anchors are genuinely re-executed
rather than borrowed from the ground-truth pass.
"""

from __future__ import annotations

import math

import pytest

from repro.analytic import (
    AnchorPoint,
    combined_speedup_bound,
    fit_series,
    is_analytic,
    parse_anchor_spec,
    plan_series,
    plan_summary,
    reported_bound,
)
from repro.core.mechanisms import MECHANISMS, make_config
from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.runtime import ExperimentRuntime, SimJob
from repro.runtime.cache import ANALYTIC_SCHEMA_TAG, ResultCache

WL = "apache"
SCALE = 0.05

#: The test grid: anchors (3x2 spread picks 1/45/70 x 2048/32768) leave
#: the lat=20 column as genuinely interpolated cells in every series.
LATS = (1, 20, 45, 70)
BTBS = (2048, 32768)

#: Slack for float round-tripping on top of the model's own bound.
EPS = 1e-9


def _grid_jobs() -> list[SimJob]:
    jobs = []
    for mech in MECHANISMS:
        for lat in LATS:
            for btb in BTBS:
                cfg = make_config(mech).with_llc_latency(lat).with_btb_entries(btb)
                jobs.append(SimJob(WL, cfg, SCALE))
    return jobs


@pytest.fixture(scope="module")
def grid_jobs() -> list[SimJob]:
    return _grid_jobs()


@pytest.fixture(scope="module")
def exact_results(grid_jobs):
    """Ground truth: every grid cell on the exact engine."""
    runtime = ExperimentRuntime()
    return dict(zip([j.key for j in grid_jobs], runtime.run_many(grid_jobs)))


@pytest.fixture(scope="module")
def analytic_run(grid_jobs, tmp_path_factory):
    """The same grid through the analytic tier, with its own stores."""
    cache_dir = tmp_path_factory.mktemp("analytic-cache")
    runtime = ExperimentRuntime(cache_dir=cache_dir, fidelity="analytic")
    results = dict(zip([j.key for j in grid_jobs], runtime.run_many(grid_jobs)))
    return runtime, results, cache_dir


#: Retired instructions of the synthetic anchors below: large enough
#: that truncating cycles to an integer moves no CPI past 1e-12.
_RETIRED = 10**12


def _anchors(points) -> list[AnchorPoint]:
    """Anchor points from ``(latency, pressure, CPI)`` triples."""
    return [
        AnchorPoint(
            latency=latency,
            pressure=pressure,
            result=SimulationResult(
                workload=WL,
                mechanism="none",
                raw={"cycles": cpi * _RETIRED, "retired_instrs": _RETIRED},
            ),
        )
        for latency, pressure, cpi in points
    ]


class TestModel:
    """The closed-form fit on hand-written anchors: no simulation."""

    def test_convex_latency_series_stays_under_escalation(self):
        """Oracle's measured ``none`` anchors (quick scale, BTB 2048 and
        32768): CPI is convex in latency, which a fit linear in CPI
        cross-validates at 0.166 — past hybrid's 0.10 threshold."""
        anchors = _anchors([
            (1, 2.093, 2.2425), (1, 0.268, 2.1869),
            (40, 2.093, 2.9858), (40, 0.268, 2.9284),
            (70, 2.093, 3.6904), (70, 0.268, 3.6297),
        ])
        fit = fit_series("oracle", "none", anchors)
        assert fit.rel_err_bound < 0.10

    def test_log_bilinear_anchors_are_reproduced(self):
        """CPI = exp(c0 + c1·L + c2·p + c3·L·p) is fit exactly: every
        cell, anchor or interpolated, to 1e-9, and the bound is its floor."""

        def cpi(latency, pressure):
            return math.exp(0.7 + 0.006 * latency + 0.03 * pressure
                            + 0.0004 * latency * pressure)

        anchors = _anchors([
            (lat, p, cpi(lat, p)) for lat in (1, 40, 70) for p in (0.268, 2.093)
        ])
        fit = fit_series(WL, "none", anchors)
        assert fit.rel_err_bound == pytest.approx(0.01, abs=1e-9)
        for lat in (1, 20, 40, 70):
            for p in (0.268, 1.0, 2.093):
                predicted = fit.predict(lat, p)
                assert predicted.cycles / predicted.instructions == pytest.approx(
                    cpi(lat, p), rel=1e-9
                )


class TestAnchorSpec:
    def test_parse(self):
        assert parse_anchor_spec("3x2") == (3, 2)
        assert parse_anchor_spec("4X3") == (4, 3)

    @pytest.mark.parametrize("bad", ["", "3", "x", "3x", "2x2", "1x9", "3x1"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_anchor_spec(bad)


class TestPlanner:
    def test_dense_column_reduction(self):
        """The planner's exact dispatch is >= 5x smaller than the grid."""
        spec = get_sweep("dense-latency-btb")
        scale = get_scale("quick")
        seen, jobs = set(), []
        for job in spec.jobs(scale):
            if job.workload != WL or job.key in seen:
                continue
            seen.add(job.key)
            jobs.append(job)
        assert len(jobs) == 120
        plans, passthrough = plan_series(jobs)
        exact, estimated = plan_summary(plans, passthrough)
        assert exact + estimated == 120
        assert exact * 5 <= len(jobs)
        # 3 series (fdip, boomerang, baseline) x 6 anchors, none passed through.
        assert not passthrough
        assert exact == 18

    def test_small_series_pass_through(self):
        """Fewer than 3 distinct latencies -> exact, never a guess."""
        jobs = [
            SimJob(
                WL,
                make_config("fdip").with_llc_latency(lat).with_btb_entries(btb),
                SCALE,
            )
            for lat in (1, 70)
            for btb in BTBS
        ]
        plans, passthrough = plan_series(jobs)
        assert not plans
        assert len(passthrough) == len(jobs)

    def test_mechanisms_never_share_a_series(self, grid_jobs):
        plans, passthrough = plan_series(grid_jobs)
        assert not passthrough
        assert len(plans) == len(MECHANISMS)
        assert {p.mechanism for p in plans} == set(MECHANISMS)


class TestAnalyticRuntime:
    def test_anchor_vs_estimated_split(self, analytic_run, grid_jobs):
        runtime, results, _ = analytic_run
        # 6 anchors per series x 8 mechanism series run exact; the other
        # 2 cells per series are synthesized.
        assert runtime.executed == 6 * len(MECHANISMS)
        assert runtime.estimated == 2 * len(MECHANISMS)
        assert runtime.executed + runtime.estimated == len(grid_jobs)

    def test_estimates_are_marked(self, analytic_run):
        _, results, _ = analytic_run
        marked = [r for r in results.values() if is_analytic(r)]
        assert len(marked) == 2 * len(MECHANISMS)
        for result in marked:
            assert reported_bound(result) > 0.0

    def test_speedup_error_within_reported_bound(
        self, analytic_run, exact_results, grid_jobs
    ):
        """The pivotal claim: every mechanism's analytic speedup is within
        the model's self-reported bound of the exact-engine speedup."""
        _, results, _ = analytic_run
        by_cell = {}
        for job in grid_jobs:
            lat, btb = (
                job.config.memory.llc_round_trip,
                job.config.btb.entries,
            )
            by_cell[(job.config.mechanism, lat, btb)] = job.key
        checked = 0
        for mech in MECHANISMS:
            if mech == "none":
                continue
            for lat in LATS:
                for btb in BTBS:
                    mech_key = by_cell[(mech, lat, btb)]
                    base_key = by_cell[("none", lat, btb)]
                    ana_mech, ana_base = results[mech_key], results[base_key]
                    if not (is_analytic(ana_mech) or is_analytic(ana_base)):
                        continue  # anchor cells are exact on both tiers
                    exact_speedup = exact_results[mech_key].speedup_over(
                        exact_results[base_key]
                    )
                    ana_speedup = ana_mech.speedup_over(ana_base)
                    bound = combined_speedup_bound(
                        reported_bound(ana_mech), reported_bound(ana_base)
                    )
                    err = abs(ana_speedup - exact_speedup) / exact_speedup
                    assert err <= bound + EPS, (
                        f"{mech} lat={lat} btb={btb}: err {err:.5f} "
                        f"exceeds reported bound {bound:.5f}"
                    )
                    checked += 1
        assert checked > 0

    def test_anchors_are_exact_engine_results(self, analytic_run, exact_results):
        """Anchor cells come from the real engine: bit-identical to truth."""
        _, results, _ = analytic_run
        exact_cells = [
            (key, r) for key, r in results.items() if not is_analytic(r)
        ]
        assert exact_cells
        for key, result in exact_cells:
            assert result.raw == exact_results[key].raw


class TestCacheIsolation:
    def test_analytic_records_never_satisfy_exact_lookups(self, analytic_run):
        """An exact-fidelity runtime over a cache holding only analytic
        records sees misses everywhere — estimates cannot shadow truth."""
        runtime, results, cache_dir = analytic_run
        exact_cache = ResultCache(cache_dir)
        analytic_store = ResultCache(cache_dir, ANALYTIC_SCHEMA_TAG)
        hit_analytic = hit_exact = 0
        for key, result in results.items():
            if not is_analytic(result):
                continue
            assert analytic_store.get(*key) is not None
            assert exact_cache.get(*key) is None
            hit_analytic += 1
        assert hit_analytic == runtime.estimated

    def test_exact_records_never_satisfy_analytic_store(self, analytic_run):
        runtime, results, cache_dir = analytic_run
        analytic_store = ResultCache(cache_dir, ANALYTIC_SCHEMA_TAG)
        for key, result in results.items():
            if is_analytic(result):
                continue
            # The anchors landed in the exact cache; the analytic store
            # must not serve them from its own (disjoint) tag directory.
            assert analytic_store.get(*key) is None

    def test_exact_runtime_reexecutes_over_analytic_only_cache(
        self, analytic_run
    ):
        """Fidelity=exact re-runs a cell even when an estimate exists."""
        _, results, cache_dir = analytic_run
        estimated_keys = [k for k, r in results.items() if is_analytic(r)]
        workload, scale_tok, digest = estimated_keys[0]
        # Fresh exact runtime on the same cache dir: the analytic record
        # for this key exists, but run_one must simulate anyway.
        runtime = ExperimentRuntime(cache_dir=cache_dir)
        # The anchor cells live in the exact cache, so pick the estimated
        # cell's config back out of the grid.
        job = next(j for j in _grid_jobs() if j.key == estimated_keys[0])
        result = runtime.run_one(job.workload, job.config, job.workload_scale)
        assert runtime.executed == 1
        assert not is_analytic(result)

    def test_analytic_runtime_prefers_exact_records(
        self, analytic_run, grid_jobs
    ):
        """A warm exact cache short-circuits the whole calibration pass."""
        _, _, cache_dir = analytic_run
        warm = ExperimentRuntime(cache_dir=cache_dir, fidelity="analytic")
        warm.run_many(grid_jobs)
        # Anchors hit the exact cache, estimates hit the analytic store:
        # nothing executes, nothing is re-estimated.
        assert warm.executed == 0
        assert warm.estimated == 0


class TestHybrid:
    def test_tight_bound_escalates_to_exact(self, grid_jobs, exact_results):
        """An impossible error budget sends every cell to the engine."""
        runtime = ExperimentRuntime(fidelity="hybrid", max_rel_err=1e-9)
        results = runtime.run_many(grid_jobs)
        assert runtime.estimated == 0
        assert runtime.executed == len(grid_jobs)
        for job, result in zip(grid_jobs, results):
            assert result.raw == exact_results[job.key].raw

    def test_hybrid_estimates_under_loose_bound(self, grid_jobs):
        runtime = ExperimentRuntime(fidelity="hybrid", max_rel_err=1.0)
        results = runtime.run_many(grid_jobs)
        assert runtime.estimated > 0
        assert runtime.executed + runtime.estimated == len(grid_jobs)
        for result in results:
            if is_analytic(result):
                assert reported_bound(result) <= 1.0
