"""Benchmark: regenerate Figure 7 (squashes per kilo-instruction)."""

from conftest import run_once

from repro.experiments import squashes


def test_figure7_squashes(benchmark, record_exhibit):
    result = run_once(benchmark, squashes.run)
    record_exhibit(result)

    avg = {row[1]: row for row in result.rows if row[0] == "avg"}

    # L1-I-only prefetchers leave BTB-miss squashes intact.
    for mech in ("Next Line", "DIP", "FDIP", "SHIFT"):
        assert float(avg[mech][3]) > 1.0, mech

    # The complete schemes eliminate (most of) them. Confluence's fill is
    # prefetch-driven, so its residual grows at small scales (less stream
    # recurrence); Boomerang detects every miss and stays at zero.
    assert float(avg["Boomerang"][3]) == 0.0
    assert float(avg["Confluence"][3]) < 0.5 * float(avg["FDIP"][3])

    # Paper: ~2x total squash reduction for complete schemes.
    assert float(avg["Boomerang"][4]) < 0.75 * float(avg["FDIP"][4])

    # DB2 is BTB-miss dominated in the baseline schemes (paper: ~75%).
    db2_fdip = next(
        row for row in result.rows if row[0] == "db2" and row[1] == "FDIP"
    )
    assert float(db2_fdip[3]) > 0.5 * float(db2_fdip[2])
