"""Public API surface tests: imports, __all__, and top-level workflow."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_export_exists(self, name):
        assert hasattr(repro, name), name

    def test_mechanism_registry_exported(self):
        assert "boomerang" in repro.MECHANISMS
        assert "none" in repro.MECHANISMS
        assert set(repro.FIGURE_MECHANISMS) <= set(repro.MECHANISMS)

    def test_profiles_exported(self):
        assert len(repro.ALL_PROFILES) == 6


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.workloads",
            "repro.memory",
            "repro.branch",
            "repro.branch.predictors",
            "repro.frontend",
            "repro.prefetch",
            "repro.core",
            "repro.analysis",
            "repro.experiments",
            "repro.runtime",
        ],
    )
    def test_imports_cleanly(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        ["repro.workloads", "repro.memory", "repro.branch", "repro.prefetch",
         "repro.core", "repro.analysis", "repro.runtime", "repro.experiments"],
    )
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestReadmeWorkflow:
    """The exact three-line workflow from README.md must work."""

    def test_readme_snippet(self):
        from repro import Simulator, load_workload, make_config

        workload = load_workload("apache", scale=0.05)
        baseline = Simulator(workload, make_config("none")).run()
        boomerang = Simulator(workload, make_config("boomerang")).run()
        assert boomerang.speedup_over(baseline) > 0
        assert boomerang.btb_squashes_per_kilo == 0.0
        assert 0 <= boomerang.coverage_over(baseline) <= 1


class TestErrorsHierarchy:
    def test_all_errors_derive_from_base(self):
        from repro.errors import (
            ConfigError,
            ReproError,
            SimulationError,
            UnknownMechanismError,
            WorkloadError,
        )

        for exc in (ConfigError, WorkloadError, SimulationError, UnknownMechanismError):
            assert issubclass(exc, ReproError)

    def test_unknown_mechanism_message(self):
        from repro.errors import UnknownMechanismError

        err = UnknownMechanismError("magic", ("a", "b"))
        assert "magic" in str(err)
        assert "a, b" in str(err)
