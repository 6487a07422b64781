"""Benchmark configuration.

Each benchmark regenerates one paper exhibit via ``repro.experiments`` and
asserts its qualitative shape. Tables are printed and also written to
``benchmarks/results/<exhibit>.txt`` so a ``--benchmark-only`` run leaves
the regenerated figures on disk.

Scale defaults to ``quick`` here (set ``REPRO_SCALE`` to override): the
benchmark suite is a regeneration harness, and quick scale preserves every
qualitative shape while keeping the full suite to a few minutes.

While a benchmark module runs, the shared runtime is pointed at the
persistent disk cache (``benchmarks/.simcache`` unless ``REPRO_CACHE_DIR``
says otherwise), so re-running the figure benchmarks does not re-pay for
the workload x mechanism grid: records are keyed by the exhaustive config
digest and versioned by a schema tag fingerprinting the simulator source,
so they can never serve stale results across engine or config changes (any
semantic edit orphans the records). The cache is scoped to benchmark
modules via a fixture — unit tests under ``tests/`` stay memory-only even
when pytest collects both directories. Delete the directory to force cold
runs.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.runtime import ResultCache, get_runtime

os.environ.setdefault("REPRO_SCALE", "quick")

CACHE_DIR = os.environ.get("REPRO_CACHE_DIR") or str(
    pathlib.Path(__file__).parent / ".simcache"
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="module", autouse=True)
def shared_sim_cache():
    """Attach the persistent disk cache to the runtime for this module."""
    runtime = get_runtime()
    prev = runtime.disk
    runtime.disk = ResultCache(CACHE_DIR)
    yield
    runtime.disk = prev


@pytest.fixture(scope="session")
def record_exhibit():
    """Write an ExperimentResult's table to benchmarks/results/ and stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(result) -> None:
        text = result.to_table()
        (RESULTS_DIR / f"{result.exhibit}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
