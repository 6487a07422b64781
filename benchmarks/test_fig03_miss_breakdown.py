"""Benchmark: regenerate Figure 3 (miss-cycle source breakdown)."""

from conftest import run_once

from repro.experiments import miss_breakdown


def test_figure3_miss_breakdown(benchmark, record_exhibit):
    result = run_once(benchmark, miss_breakdown.run)
    record_exhibit(result)

    base = result.row_for("Base 2K")
    nl = result.row_for("Next-Line 2K")
    # Baseline normalizes to 100% of itself.
    assert float(base[4]) == 100.0 if abs(float(base[4]) - 100.0) < 0.01 else True
    assert abs(float(base[4]) - 100.0) < 0.5

    # Sequential misses are a major class in the baseline (paper: 40-54%).
    seq_share = float(base[1]) / float(base[4])
    assert 0.25 < seq_share < 0.75

    # Next-line attacks the sequential class hardest.
    seq_covered = float(base[1]) - float(nl[1])
    uncond_covered = float(base[3]) - float(nl[3])
    assert seq_covered > uncond_covered

    # FDIP with a bigger BTB improves mainly the unconditional class.
    fdip_rows = [r for r in result.rows if str(r[0]).startswith("FDIP")]
    small, large = fdip_rows[0], fdip_rows[-1]
    assert float(large[3]) <= float(small[3]) + 0.5
    # Every prefetcher removes most baseline miss cycles overall.
    assert float(large[4]) < 60.0
