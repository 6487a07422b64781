"""Bench guard: columnar trace generation + iteration vs the tuple baseline.

The columnar refactor pays a per-record cost to append into six ``array``
columns; the walker offsets it by precompiling per-block walk info (no
frozen-dataclass attribute reads in the loop) and the columnar
``summarize`` replaces the per-record Python loop with whole-column
passes. This guard pins the net effect: over the quick workload set,
generating **and** summarizing a columnar trace must be no slower than
the seed repo's tuple-list walker and tuple summarize.

The baseline is the seed implementation kept verbatim
(``tests/tuple_baseline.py`` — shared with the bit-identical equivalence
test in ``tests/test_trace.py``), so the comparison stays honest as the
columnar side evolves.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.workloads.builder import build_cfg
from repro.workloads.profiles import ALL_PROFILES
from repro.workloads.trace import generate_trace, summarize
from repro.workloads.workload import trace_seed

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from tuple_baseline import tuple_summarize, tuple_walk  # noqa: E402

QUICK_SCALE = 0.25

#: Generous noise margin: the measured ratio is ~0.9 (columnar ahead), so
#: tripping this means a real regression, not scheduler jitter.
ALLOWED_RATIO = 1.25

ROUNDS = 4


def _time_quick_set(*fns):
    """Best-of-ROUNDS total wall-clock per candidate over the quick set.

    Candidates run *interleaved* (tuple round, columnar round, tuple
    round, ...) so a drifting machine load shifts both measurements
    instead of biasing whichever side happened to run first; CFGs are
    prebuilt once and shared, so only the trace path is timed.
    """
    prepared = []
    for profile in ALL_PROFILES:
        scaled = profile.scaled(QUICK_SCALE)
        prepared.append(
            (build_cfg(scaled), scaled.default_trace_instrs, trace_seed(scaled))
        )
    best = [float("inf")] * len(fns)
    for _ in range(ROUNDS):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for cfg, length, seed in prepared:
                fn(cfg, length, seed)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def test_columnar_generation_and_iteration_not_slower():
    def tuple_side(cfg, length, seed):
        records, _ = tuple_walk(cfg, length, seed)
        tuple_summarize(records)

    def columnar_side(cfg, length, seed):
        trace = generate_trace(cfg, length, seed=seed)
        summarize(trace)

    t_tuple, t_columnar = _time_quick_set(tuple_side, columnar_side)
    ratio = t_columnar / t_tuple
    print(
        f"\nquick-set gen+summarize: tuple {t_tuple * 1e3:.0f}ms, "
        f"columnar {t_columnar * 1e3:.0f}ms (ratio {ratio:.2f})"
    )
    assert ratio <= ALLOWED_RATIO, (
        f"columnar trace path regressed: {t_columnar * 1e3:.0f}ms vs tuple "
        f"baseline {t_tuple * 1e3:.0f}ms (ratio {ratio:.2f} > {ALLOWED_RATIO})"
    )
