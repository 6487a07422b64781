"""Tests for the experiment harness (quick scale)."""

import re
from types import SimpleNamespace

import pytest

from repro.core.mechanisms import make_config
from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import main
from repro.experiments.common import SCALES, ExperimentResult, get_scale
from repro.runtime import get_runtime


class TestScales:
    def test_three_scales(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_get_scale_by_name(self):
        assert get_scale("quick").name == "quick"

    def test_get_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert get_scale().name == "quick"

    def test_unknown_scale_raises(self):
        with pytest.raises(ConfigError):
            get_scale("enormous")

    def test_cli_unknown_env_scale_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert main(["figure4"]) == 2
        captured = capsys.readouterr()
        assert "unknown scale 'bogus'" in captured.err
        assert captured.out == ""

    def test_quick_is_smaller(self):
        assert SCALES["quick"].workload_scale < SCALES["default"].workload_scale
        assert len(SCALES["quick"].latency_points) < len(SCALES["full"].latency_points)


class TestRunCached:
    def test_cache_hit_same_object(self):
        cfg = make_config("none")
        a = get_runtime().run_one("streaming", cfg, workload_scale=0.05)
        b = get_runtime().run_one("streaming", cfg, workload_scale=0.05)
        assert a is b

    def test_different_mechanism_different_run(self):
        runtime = get_runtime()
        a = runtime.run_one("streaming", make_config("none"), workload_scale=0.05)
        b = runtime.run_one("streaming", make_config("next_line"), workload_scale=0.05)
        assert a is not b


class TestExperimentResult:
    def test_table_renders(self):
        r = ExperimentResult("x", "Title", ["a", "b"], [[1, 2.0]], notes=["n"])
        text = r.to_table()
        assert "Title" in text and "note: n" in text

    def test_column_access(self):
        r = ExperimentResult("x", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert r.column("b") == [2, 4]

    def test_row_for(self):
        r = ExperimentResult("x", "t", ["a", "b"], [["w", 2]])
        assert r.row_for("w") == ["w", 2]
        with pytest.raises(KeyError):
            r.row_for("missing")


class TestCliFloatFormat:
    @pytest.mark.parametrize("exhibit, decimals", [("figure3", 1), ("figure7", 2)])
    def test_cli_prints_the_exhibits_own_format(
        self, monkeypatch, capsys, exhibit, decimals
    ):
        """``python -m repro.experiments quick figure3`` prints the table
        the module's ``main()`` and ``benchmarks/results/`` print (one
        workload here, to keep it cheap)."""
        module = EXPERIMENTS[exhibit]
        one_workload = SimpleNamespace(
            run=lambda scale: module.run(scale, workloads=("streaming",))
        )
        monkeypatch.setitem(EXPERIMENTS, exhibit, one_workload)
        assert main(["quick", exhibit]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, x in enumerate(lines) if x.startswith("---")) + 1
        end = next(i for i, x in enumerate(lines) if x.startswith("note:"))
        numbers = re.findall(r"\d+\.\d+", "\n".join(lines[start:end]))
        assert numbers
        assert {len(n.split(".")[1]) for n in numbers} == {decimals}


class TestRegistry:
    def test_all_paper_exhibits_present(self):
        expected = {f"figure{i}" for i in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)}
        expected |= {"storage", "ablations"}
        assert set(EXPERIMENTS) == expected

    def test_every_module_has_run_and_main(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.main)


class TestCheapExhibits:
    """Exhibits that need no (or tiny) simulation run in the test suite."""

    def test_figure4_runs(self):
        result = EXPERIMENTS["figure4"].run("quick", workloads=("streaming",))
        assert result.exhibit == "figure4"
        last_cdf = float(result.rows[0][-1])
        assert last_cdf == pytest.approx(1.0, abs=0.02)

    def test_figure4_within4_high(self):
        result = EXPERIMENTS["figure4"].run("quick", workloads=("streaming",))
        within4 = float(result.rows[0][5])
        assert within4 > 0.85

    def test_storage_runs(self):
        result = EXPERIMENTS["storage"].run()
        boom_row = result.row_for("boomerang")
        assert boom_row[4] == "540 B"

    def test_figure1_single_workload(self):
        result = EXPERIMENTS["figure1"].run("quick", workloads=("streaming",))
        row = result.row_for("streaming")
        assert float(row[2]) > 1.0  # perfect L1-I speeds up
        assert float(row[3]) >= float(row[2]) - 0.01  # +BTB at least as fast

    def test_figure7_single_workload(self):
        result = EXPERIMENTS["figure7"].run("quick", workloads=("streaming",))
        boom = [r for r in result.rows if r[1] == "Boomerang" and r[0] == "streaming"]
        assert boom and float(boom[0][3]) == 0.0  # no BTB-miss squashes

    def test_figure9_single_workload(self):
        result = EXPERIMENTS["figure9"].run("quick", workloads=("streaming",))
        row = result.row_for("streaming")
        boom = float(row[result.headers.index("Boomerang")])
        assert boom > 1.0
