"""Declarative sweep grids: spec geometry, registry integrity, execution."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.core.mechanisms import MECHANISMS, make_config
from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentScale, get_scale
from repro.experiments.sweeps import KNOBS, SWEEPS, Grid, SweepSpec, get_sweep
from repro.experiments.sweeps.__main__ import main
from repro.runtime import SimJob

#: A scale small enough to actually execute a sweep in a unit test.
TINY = ExperimentScale(
    name="tiny",
    workload_scale=0.05,
    latency_points=(1, 30),
    btb_sizes=(2048,),
    fig3_btb_sizes=(2048,),
)


@pytest.fixture
def tiny_scale(register_scale):
    return register_scale(TINY)


class TestRegistryIntegrity:
    def test_names_match_keys(self):
        for name, spec in SWEEPS.items():
            assert spec.name == name

    def test_roadmap_dense_grid_shape(self):
        """The ROADMAP's 8-point latency x 5-point BTB grid, as promised."""
        spec = SWEEPS["dense-latency-btb"]
        axes = dict(spec.axes)
        assert len(axes["llc_latency"]) == 8
        assert len(axes["btb_entries"]) == 5
        # fdip + boomerang + matched baseline over 6 workloads x 40 points
        assert spec.job_count(get_scale("default")) == 3 * 8 * 5 * 6

    def test_ablation_matrix_covers_all_profiles_and_mechanisms(self):
        spec = SWEEPS["ablation-matrix"]
        assert spec.workload_set == "all"
        assert len(spec.workloads()) == 10
        assert set(spec.mechanisms) == set(MECHANISMS) - {"none"}

    def test_get_sweep_unknown_name_lists_known(self):
        with pytest.raises(ConfigError) as err:
            get_sweep("nope")
        assert "smoke" in str(err.value)


class TestSpecValidation:
    def test_unknown_mechanism_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown mechanisms"):
            SweepSpec("x", "t", "d", mechanisms=("warp-drive",))

    def test_unknown_axis_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown axes"):
            SweepSpec("x", "t", "d", mechanisms=("fdip",), axes=(("hyper", (1,)),))

    def test_unknown_workload_set_rejected(self):
        with pytest.raises(ConfigError, match="workload set"):
            SweepSpec("x", "t", "d", mechanisms=("fdip",), workload_set="imaginary")

    def test_axis_naming_no_scale_field_rejected(self):
        with pytest.raises(ConfigError, match="name no scale field"):
            SweepSpec("x", "t", "d", mechanisms=("fdip",), axes=(("llc_latency", "scale"),))

    def test_unknown_mechanism_in_union_rejected(self):
        with pytest.raises(ConfigError, match="unknown mechanisms"):
            SweepSpec("x", "t", "d", mechanisms=("fdip",), union=(Grid(("warp",)),))


class TestGridGeometry:
    def test_points_are_cartesian_product(self, tiny_scale):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("fdip", "boomerang"),
            axes=(("llc_latency", "latency_points"), ("btb_entries", (2048, 8192))),
        )
        points = spec.points(tiny_scale)
        assert len(points) == 2 * 2 * 2  # mechanisms x latencies x btb sizes
        assert len({p.settings for p in points}) == 4

    def test_shared_knobs_reach_the_baseline(self):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("boomerang",),
            axes=(("llc_latency", (55,)), ("throttle_blocks", (4,))),
        )
        point = spec.points(get_scale("quick"))[0]
        cfg = point.config()
        assert cfg.memory.llc_round_trip_override == 55
        assert cfg.prefetch.throttle_blocks == 4
        base = point.baseline()
        # Machine-shaping knob follows; mechanism-local knob does not.
        assert base.memory.llc_round_trip_override == 55
        assert base.prefetch.throttle_blocks == make_config("none").prefetch.throttle_blocks

    def test_every_knob_applies_cleanly(self):
        samples = {
            "btb_entries": 8192,
            "llc_latency": 10,
            "noc_kind": "crossbar",
            "predictor": "bimodal",
            "ftq_depth": 16,
            "predecode_latency": 6,
            "throttle_blocks": 1,
            "btb_prefetch_buffer": 8,
            "perfect_l1i": True,
            "perfect_btb": True,
        }
        assert set(samples) == set(KNOBS)
        base = make_config("boomerang")
        for knob, value in samples.items():
            cfg = KNOBS[knob].apply(base, value)
            assert isinstance(cfg, SimConfig)
            assert cfg != base

    def test_scale_axes_resolve_from_the_scale(self, tiny_scale):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("fdip",),
            axes=(("btb_entries", "fig3_btb_sizes"), ("llc_latency", "latency_points")),
        )
        settings = [p.settings for p in spec.points(tiny_scale)]
        assert settings == [
            (("btb_entries", 2048), ("llc_latency", 1)),
            (("btb_entries", 2048), ("llc_latency", 30)),
        ]

    def test_union_points_follow_product_order(self, tiny_scale):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("none",),
            union=(Grid(("fdip", "pif"), (("btb_entries", (8192,)),)),),
        )
        points = spec.points(tiny_scale)
        assert [(p.mechanism, p.settings) for p in points] == [
            ("none", ()),
            ("fdip", (("btb_entries", 8192),)),
            ("pif", (("btb_entries", 8192),)),
        ]
        assert spec.axis_names() == ("btb_entries",)
        assert points[1]["btb_entries"] == 8192
        assert spec.summary() == "none ∪ fdip, pif × btb_entries=8192"

    def test_perfect_knobs_match_make_config(self):
        point = SWEEPS["figure1"].points(get_scale("quick"))[2]
        assert point.config() == make_config("none", perfect_l1i=True, perfect_btb=True)

    def test_job_count_collapses_duplicate_baselines(self, tiny_scale):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("fdip", "boomerang"),
            axes=(("throttle_blocks", (0, 2)),),
        )
        # 4 points x 6 workloads, but all share ONE baseline per workload
        # (throttle_blocks is mechanism-local): 24 + 6, not 24 + 24.
        assert spec.job_count(tiny_scale) == 30


class TestSweepExecution:
    def test_run_produces_speedups_and_gmean_rows(self, tiny_scale):
        spec = SweepSpec(
            "x", "t", "d",
            mechanisms=("fdip",),
            axes=(("llc_latency", (30,)),),
        )
        result = spec.run("tiny")
        assert result.headers == ["workload", "mechanism", "llc_latency", "ipc", "speedup"]
        assert len(result.rows) == 6 + 1  # per-workload rows + gmean
        gmean = result.rows[-1]
        assert gmean[0] == "gmean"
        assert gmean[-1] > 1.0  # FDIP beats no-prefetch
        for row in result.rows[:-1]:
            assert row[1] == "fdip" and row[2] == 30
            assert 0 < row[3] <= 3  # IPC within the 3-wide machine


#: Unique jobs each exhibit grid submits at quick scale.
QUICK_JOB_COUNTS = {
    "figure1": 18,
    "figure2": 90,
    "figure3": 30,
    "figure5": 108,
    "figure9": 42,
    "figure10": 36,
    "figure11": 36,
    "ablations": 60,
}

#: Exhibits whose module is a spec plus a render.
SPEC_EXHIBITS = [name for name, module in EXPERIMENTS.items() if hasattr(module, "SPEC")]

#: Two profiles keep the per-exhibit read check to a few seconds.
CHECK_WORKLOADS = ("streaming", "db2")


class TestExhibitGrids:
    def test_registry_holds_every_exhibit_grid(self):
        names = {EXPERIMENTS[e].SPEC.name for e in SPEC_EXHIBITS}
        assert names == set(QUICK_JOB_COUNTS)
        for exhibit in SPEC_EXHIBITS:
            spec = EXPERIMENTS[exhibit].SPEC
            assert SWEEPS[spec.name].grids() == spec.grids(), exhibit

    @pytest.mark.parametrize("name", sorted(QUICK_JOB_COUNTS))
    def test_quick_job_count(self, name):
        assert SWEEPS[name].job_count(get_scale("quick")) == QUICK_JOB_COUNTS[name]

    @pytest.mark.parametrize("exhibit", SPEC_EXHIBITS)
    def test_exhibit_reads_exactly_what_it_submits(self, exhibit, tiny_scale):
        spec = EXPERIMENTS[exhibit].SPEC
        read: set[tuple[str, str, str]] = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        def recording_render(results):
            return spec.render(replace(results, by_key=Recording(results.by_key)))

        table = replace(spec, render=recording_render).run(
            "tiny", workloads=CHECK_WORKLOADS
        )
        assert table.rows
        submitted = {j.key for j in spec.jobs(tiny_scale, workloads=CHECK_WORKLOADS)}
        if exhibit == "figure7":
            # Figure 7 plots only the mechanisms' squashes; the baselines
            # it submits are the ones Figures 8 and 9 read from the grid.
            submitted = {
                SimJob(name, point.config(), tiny_scale.workload_scale).key
                for point in spec.points(tiny_scale)
                for name in CHECK_WORKLOADS
            }
        assert read == submitted


    def test_render_hashes_each_distinct_config_once(self, monkeypatch):
        from repro.core.results import SimulationResult
        from repro.experiments import grid

        spec = SWEEPS["dense-latency-btb"]
        scale = get_scale("quick")
        names = spec.workloads()
        jobs = spec.jobs(scale, workloads=names)
        result = SimulationResult("w", "m", {"cycles": 100, "retired_instrs": 150})
        by_key = {job.key: result for job in jobs}
        real = grid.config_digest
        hashed: list[SimConfig] = []

        def counting(config):
            hashed.append(config)
            return real(config)

        monkeypatch.setattr(grid, "config_digest", counting)
        table = spec.render(grid.SweepResults(spec, scale, names, by_key))
        assert len(table.rows) == len(spec.points(scale)) * (len(names) + 1)
        distinct = {job.key[2] for job in jobs}
        assert len(distinct) == 120  # 80 points and their 40 baselines
        assert len(hashed) <= len(distinct)
        assert {real(config) for config in hashed} == distinct


class TestSweepCLI:
    def test_list_and_show_run_cleanly(self, capsys):
        assert main(["list"]) == 0
        assert main(["show", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "dense-latency-btb" in out
        assert "fdip, boomerang" in out

    def test_run_unknown_sweep_fails_cleanly_with_known_names(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "known sweeps" in err and "smoke" in err

    @pytest.mark.parametrize(
        "argv", [["list"], ["show", "smoke"], ["run", "smoke", "--no-table"]]
    )
    def test_unknown_env_scale_fails_cleanly(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert main(argv) == 2
        assert "unknown scale 'bogus'" in capsys.readouterr().err

    def test_unknown_scale_flag_fails_cleanly(self, capsys):
        assert main(["show", "smoke", "--scale", "bogus"]) == 2
        assert "valid scales" in capsys.readouterr().err

    def test_run_stale_backend_fails_cleanly(self, capsys, monkeypatch):
        from repro.runtime import runner

        monkeypatch.setattr(runner, "_RUNTIME", None)
        assert main(["run", "smoke", "--backend", "slurm"]) == 2
        assert "valid backends" in capsys.readouterr().err
