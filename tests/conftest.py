"""Shared fixtures: small deterministic workloads and cached simulations.

Tests run on heavily scaled-down workloads (same generators, same code
paths, smaller footprints) so the whole suite stays fast. Fixtures are
session-scoped: workload construction and simulation results are shared
across test modules, which is safe because both are deterministic and
treated as read-only by tests.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import Simulator, load_workload, make_config
from repro.core.results import SimulationResult
from repro.envopts import REPRO_ENV_OPTIONS
from repro.experiments.common import SCALES
from repro.workloads import Workload

#: Scale for functional tests (fast; structures not under pressure).
SMALL_SCALE = 0.08

#: Scale for shape/integration tests (structures under real pressure).
MEDIUM_SCALE = 0.3


@pytest.fixture(scope="session")
def small_workload() -> Workload:
    return load_workload("apache", scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def small_oltp_workload() -> Workload:
    return load_workload("db2", scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def medium_workload() -> Workload:
    return load_workload("apache", scale=MEDIUM_SCALE)


@pytest.fixture(scope="session")
def medium_oltp_workload() -> Workload:
    return load_workload("db2", scale=MEDIUM_SCALE)


@pytest.fixture(scope="session")
def medium_streaming_workload() -> Workload:
    return load_workload("streaming", scale=MEDIUM_SCALE)


@pytest.fixture
def register_scale(monkeypatch):
    """Add a test-only ``ExperimentScale`` for one test: to ``SCALES``, and
    to the ``REPRO_SCALE`` choices every scale name is checked against."""

    def register(scale):
        monkeypatch.setitem(SCALES, scale.name, scale)
        option = REPRO_ENV_OPTIONS["REPRO_SCALE"]
        choices = (*option.choices, scale.name)
        monkeypatch.setitem(REPRO_ENV_OPTIONS, option.name, replace(option, choices=choices))
        return scale

    return register


class _RunCache:
    """Session-wide memo for (workload, mechanism, overrides) results."""

    def __init__(self):
        self._cache: dict[tuple, SimulationResult] = {}

    def run(self, workload: Workload, mechanism: str = "none", **overrides) -> SimulationResult:
        key = (workload.name, workload.profile.code_kb, mechanism,
               tuple(sorted((k, repr(v)) for k, v in overrides.items())))
        if key not in self._cache:
            cfg = make_config(mechanism, **overrides)
            self._cache[key] = Simulator(workload, cfg).run()
        return self._cache[key]


@pytest.fixture(scope="session")
def sim_cache() -> _RunCache:
    return _RunCache()
