"""Warehouse suite: rebuild state machine, queries, tiers, CLI.

The contracts under test, in order:

* **Schema round-trip** — a warehouse written by this code is re-opened
  by this code; one written under a different ``WAREHOUSE_SCHEMA`` is
  refused, never misread.
* **Rebuild state machine** — a seeded property test interleaves cache
  puts/overwrites with ``prune`` / stale-tag decay and asserts, after
  every cycle, that the refreshed warehouse holds exactly the readable
  records and equals a from-scratch rebuild of the same stores; pruned
  or deleted records leave no row, and the refresh counts say what
  changed.
* **Layout independence** — ``contour dense-latency-btb`` renders the
  full grid, bit-identically whether or not the cache also holds files
  that are not records (a legacy ``shard.jsonl``, its lock file).
* **Tier interplay** — analytic cells surface their
  ``analytic_rel_err_bound`` and can never shadow an exact row, and a
  current-tag row outranks a stale-tag one (enforced by the lookup SQL).
* **CLI** — ``refresh``/``status`` round-trip; the query subcommands need
  an existing warehouse.

Golden fixtures live under ``tests/golden/`` and are compared
bit-for-bit; regenerate them only for a deliberate format change.
"""

from __future__ import annotations

import json
import random
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.core.results import SimulationResult
from repro.errors import ConfigError
from repro.experiments.common import get_scale
from repro.experiments.sweeps import get_sweep
from repro.runtime import SimJob
from repro.runtime.cache import (
    ANALYTIC_SCHEMA_TAG,
    SCHEMA_TAG,
    ResultCache,
    prune_cache,
)
from repro.warehouse import (
    QUERY_NAMES,
    WAREHOUSE_SCHEMA,
    connect,
    db_path,
    lookup_cell,
    read_status,
    refresh_warehouse,
)
from repro.warehouse.queries import QUERIES, render_contour

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SCALE_TOK = "0.25"
STALE_TAG = "engine-v1-000000000000"


def _digest(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(64))


def _result(workload: str, cycles: float, mechanism: str = "fdip") -> SimulationResult:
    return SimulationResult(
        workload=workload,
        mechanism=mechanism,
        raw={"cycles": cycles, "retired_instrs": 1500.0},
    )


def _put_stale(cache_dir: Path, workload: str, digest: str, cycles: float) -> None:
    """A loose record under a stale (pruneable) engine schema tag."""
    path = cache_dir / STALE_TAG / workload / f"s{SCALE_TOK}__{digest[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "schema": STALE_TAG,
                "workload": workload,
                "scale": SCALE_TOK,
                "config_digest": digest,
                "mechanism": "fdip",
                "raw": {"cycles": cycles, "retired_instrs": 1500.0},
            }
        )
    )


def _cells(cache_dir: Path) -> dict[tuple[str, str, str, str], str]:
    """(workload, scale, digest, tag) -> raw JSON for every row."""
    conn = connect(cache_dir)
    try:
        return {
            (str(r[0]), str(r[1]), str(r[2]), str(r[3])): str(r[4])
            for r in conn.execute(
                "SELECT workload, scale, config_digest, schema_tag, raw"
                " FROM cells"
            )
        }
    finally:
        conn.close()


def _rebuild(cache_dir: Path, scratch: Path) -> dict[tuple[str, str, str, str], str]:
    """A from-scratch warehouse over a copy of the same stores."""
    clone = scratch / "rebuild"
    if clone.exists():
        shutil.rmtree(clone)
    shutil.copytree(
        cache_dir, clone, ignore=shutil.ignore_patterns("warehouse.sqlite*")
    )
    refresh_warehouse(clone)
    return _cells(clone)


# ---------------------------------------------------------------------------
# Schema round-trip
# ---------------------------------------------------------------------------


class TestSchema:
    def test_empty_refresh_roundtrips(self, tmp_path):
        stats = refresh_warehouse(tmp_path)
        assert stats.changes == 0
        conn = connect(tmp_path)
        status = read_status(conn)
        conn.close()
        assert status.schema == WAREHOUSE_SCHEMA
        assert status.cells == 0

    def test_foreign_schema_is_refused(self, tmp_path):
        connect(tmp_path).close()
        raw = sqlite3.connect(db_path(tmp_path))
        raw.execute("UPDATE meta SET value = 'warehouse-v1' WHERE key = 'schema'")
        raw.commit()
        raw.close()
        with pytest.raises(ConfigError, match="warehouse-v1"):
            connect(tmp_path)

    def test_query_registry_matches_names(self):
        assert set(QUERY_NAMES) == set(QUERIES)


# ---------------------------------------------------------------------------
# Rebuild state machine (property test)
# ---------------------------------------------------------------------------


class TestConsolidationStateMachine:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_lifecycle_always_equals_rebuild(self, tmp_path, seed):
        """Puts, overwrites, stale decay, pruning and repeated refreshes,
        in random interleavings: after every cycle the refreshed
        warehouse must equal both the test's own model of the stores and
        a from-scratch rebuild."""
        rng = random.Random(seed)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache = ResultCache(cache_dir)
        workloads = ("wlA", "wlB", "wlC")
        #: (workload, scale, digest, tag) -> cycles, mirroring the stores.
        expected: dict[tuple[str, str, str, str], float] = {}
        graveyard: dict[tuple[str, str, str, str], float] = {}
        for cycle in range(6):
            for _ in range(rng.randrange(1, 6)):
                wl = rng.choice(workloads)
                digest = _digest(rng)
                cycles = float(rng.randrange(500, 5000))
                cache.put(wl, SCALE_TOK, digest, _result(wl, cycles))
                expected[(wl, SCALE_TOK, digest, SCHEMA_TAG)] = cycles
            current = sorted(k for k in expected if k[3] == SCHEMA_TAG)
            if current and rng.random() < 0.7:
                key = rng.choice(current)
                cycles = float(rng.randrange(5000, 9000))
                cache.put(key[0], key[1], key[2], _result(key[0], cycles))
                expected[key] = cycles
            action = rng.choice(("stale-put", "prune-stale", "re-put", "noop"))
            if action == "stale-put":
                digest = _digest(rng)
                cycles = float(rng.randrange(100, 400))
                _put_stale(cache_dir, "wlA", digest, cycles)
                expected[("wlA", SCALE_TOK, digest, STALE_TAG)] = cycles
            elif action == "prune-stale":
                prune_cache(cache_dir)
                for key in [k for k in expected if k[3] == STALE_TAG]:
                    graveyard[key] = expected.pop(key)
            elif action == "re-put" and graveyard:
                key = rng.choice(sorted(graveyard))
                cycles = graveyard.pop(key)
                _put_stale(cache_dir, key[0], key[2], cycles)
                expected[key] = cycles
            refresh_warehouse(cache_dir)
            cells = _cells(cache_dir)
            assert set(cells) == set(expected), f"cycle {cycle} ({action})"
            for key, raw_json in cells.items():
                assert json.loads(raw_json)["cycles"] == expected[key]
            assert cells == _rebuild(cache_dir, tmp_path)
        # Converged: one more refresh applies nothing.
        assert refresh_warehouse(cache_dir).changes == 0

    def test_refresh_counts_against_old_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"wl{i}", SCALE_TOK, f"{i:064x}", _result(f"wl{i}", 1000.0 + i))
        first = refresh_warehouse(tmp_path)
        assert (first.inserted, first.changes) == (5, 5)
        cache.put("wl0", SCALE_TOK, f"{0:064x}", _result("wl0", 4242.0))
        second = refresh_warehouse(tmp_path)
        assert (second.inserted, second.updated, second.unchanged) == (0, 1, 4)
        assert second.removed == 0
        assert refresh_warehouse(tmp_path).changes == 0

    def test_pruned_tag_rows_are_removed(self, tmp_path):
        _put_stale(Path(tmp_path), "wl", "a" * 64, 777.0)
        assert refresh_warehouse(tmp_path).inserted == 1
        prune_cache(tmp_path)
        stats = refresh_warehouse(tmp_path)
        assert (stats.removed, stats.changes) == (1, 1)
        assert _cells(tmp_path) == {}

    def test_deleted_record_row_is_gone_after_refresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        keep, drop = "1" * 64, "2" * 64
        cache.put("wl", SCALE_TOK, keep, _result("wl", 1000.0))
        cache.put("wl", SCALE_TOK, drop, _result("wl", 2000.0))
        refresh_warehouse(tmp_path)
        (tmp_path / SCHEMA_TAG / "wl" / f"s{SCALE_TOK}__{drop[:16]}.json").unlink()
        stats = refresh_warehouse(tmp_path)
        assert (stats.removed, stats.unchanged) == (1, 1)
        conn = connect(tmp_path)
        try:
            assert lookup_cell(conn, "wl", SCALE_TOK, drop) is None
            assert lookup_cell(conn, "wl", SCALE_TOK, keep) is not None
        finally:
            conn.close()

    def test_damaged_record_is_counted_corrupt_not_consolidated(self, tmp_path):
        """A record whose crc32 no longer matches its content — here one
        digit of ``raw.cycles`` changed — is what ResultCache.get refuses;
        the warehouse must refuse it too, and say so."""
        cache = ResultCache(tmp_path)
        good, bad = "1" * 64, "2" * 64
        cache.put("wl", SCALE_TOK, good, _result("wl", 1000.0))
        cache.put("wl", SCALE_TOK, bad, _result("wl", 2000.0))
        path = tmp_path / SCHEMA_TAG / "wl" / f"s{SCALE_TOK}__{bad[:16]}.json"
        record = json.loads(path.read_text())
        record["raw"]["cycles"] = 2001.0
        path.write_text(json.dumps(record))
        stats = refresh_warehouse(tmp_path)
        assert (stats.inserted, stats.corrupt) == (1, 1)
        assert stats.summary().endswith(", 1 corrupt")
        conn = connect(tmp_path)
        try:
            assert lookup_cell(conn, "wl", SCALE_TOK, bad) is None
            assert lookup_cell(conn, "wl", SCALE_TOK, good) is not None
        finally:
            conn.close()
        assert cache.get("wl", SCALE_TOK, bad) is None and cache.corrupt == 1

    def test_summary_omits_a_zero_corrupt_count(self, tmp_path):
        ResultCache(tmp_path).put("wl", SCALE_TOK, "1" * 64, _result("wl", 1000.0))
        refresh_warehouse(tmp_path)
        stats = refresh_warehouse(tmp_path)
        assert stats.summary() == "+0 inserted, ~0 updated, -0 removed, 1 unchanged"


# ---------------------------------------------------------------------------
# Layout independence (the acceptance criterion) and golden queries
# ---------------------------------------------------------------------------


def _synthetic_records(sweep: str) -> list[tuple[str, str, str, str, dict]]:
    """Deterministic synthetic results for every unique cell of a sweep.

    Cycles are a pure function of (workload index, mechanism, llc, btb),
    so the expected query output is frozen by the sweep definition alone —
    independent of config digests, schema tags, or insertion order.
    """
    spec = get_sweep(sweep)
    scale = get_scale("quick")
    workloads = spec.workloads("paper")
    records: dict[tuple[str, str, str], tuple[str, str, str, str, dict]] = {}
    for point in spec.points(scale):
        settings = dict(point.settings)
        llc = int(str(settings.get("llc_latency", 30)))
        btb = int(str(settings.get("btb_entries", 8192)))
        for iw, wl in enumerate(workloads):
            base_cycles = 1000.0 + 3.0 * llc + 7.0 * btb.bit_length() + 13.0 * iw
            mech_factor = {"fdip": 0.84, "boomerang": 0.78}.get(point.mechanism, 0.9)
            for cfg, mech, cycles in (
                (point.baseline(), "none", base_cycles),
                (point.config(), point.mechanism, base_cycles * mech_factor + llc / 8),
            ):
                key = SimJob(wl, cfg, scale.workload_scale).key
                records[key] = (
                    key[0],
                    key[1],
                    key[2],
                    mech,
                    {"cycles": cycles, "retired_instrs": 1200.0},
                )
    return list(records.values())


def _seed_layout(
    cache_dir: Path,
    records: list[tuple[str, str, str, str, dict]],
    layout: str,
) -> None:
    cache = ResultCache(cache_dir)
    for wl, scale_tok, digest, mech, raw in records:
        cache.put(wl, scale_tok, digest, SimulationResult(wl, mech, dict(raw)))
    if layout == "leftovers":
        # What a cache compacted by older code leaves behind: a shard of
        # well-formed records (here with doubled cycles, so reading them
        # would change the contour) and its lock file. Neither is a record.
        for wl in {r[0] for r in records}:
            wl_dir = cache_dir / SCHEMA_TAG / wl
            lines = [
                json.dumps(
                    {
                        "schema": SCHEMA_TAG,
                        "workload": wl,
                        "scale": scale_tok,
                        "config_digest": digest,
                        "mechanism": mech,
                        "raw": {**raw, "cycles": 2 * float(raw["cycles"])},
                    }
                )
                for w, scale_tok, digest, mech, raw in records
                if w == wl
            ]
            (wl_dir / "shard.jsonl").write_text("\n".join(lines) + "\n")
            (wl_dir / ".compact.lock").touch()


class TestLayoutIndependence:
    def test_dense_contour_bit_identical_across_layouts(self, tmp_path):
        records = _synthetic_records("dense-latency-btb")
        assert len(records) == 720  # the full ROADMAP grid, baselines included
        outputs = {}
        for layout in ("flat", "leftovers"):
            cache_dir = tmp_path / layout
            cache_dir.mkdir()
            _seed_layout(cache_dir, records, layout)
            refresh_warehouse(cache_dir)
            conn = connect(cache_dir)
            try:
                assert read_status(conn).cells == 720
                outputs[layout] = render_contour(
                    conn, "dense-latency-btb", scale="quick", workload_set="paper"
                )
            finally:
                conn.close()
        assert outputs["flat"] == outputs["leftovers"]
        assert "#### fdip" in outputs["flat"] and "#### boomerang" in outputs["flat"]
        assert "no consolidated result yet" not in outputs["flat"]  # grid complete

    def test_contour_smoke_matches_golden(self, tmp_path):
        """The smoke-sweep contour, bit-for-bit against the committed
        fixture. Only a deliberate rendering/format change may touch the
        golden file."""
        records = _synthetic_records("smoke")
        _seed_layout(tmp_path, records, "flat")
        refresh_warehouse(tmp_path)
        conn = connect(tmp_path)
        try:
            output = render_contour(conn, "smoke", scale="quick", workload_set="paper")
        finally:
            conn.close()
        golden = (GOLDEN_DIR / "contour_smoke.md").read_text()
        assert output == golden


# ---------------------------------------------------------------------------
# Analytic/exact tier interplay at the SQL layer
# ---------------------------------------------------------------------------


def _analytic_result(workload: str, cycles: float, bound: float) -> SimulationResult:
    return SimulationResult(
        workload=workload,
        mechanism="fdip",
        raw={
            "cycles": cycles,
            "retired_instrs": 1500.0,
            "analytic": 1.0,
            "analytic_rel_err_bound": bound,
        },
    )


class TestTierInterplay:
    def test_exact_row_never_shadowed_by_analytic(self, tmp_path):
        digest = "ab" * 32
        ResultCache(tmp_path).put(
            "wl", SCALE_TOK, digest, _result("wl", 1000.0)
        )
        ResultCache(tmp_path, ANALYTIC_SCHEMA_TAG).put(
            "wl", SCALE_TOK, digest, _analytic_result("wl", 900.0, 0.05)
        )
        refresh_warehouse(tmp_path)
        conn = connect(tmp_path)
        try:
            status = read_status(conn)
            assert status.cells == 2  # both tiers consolidated...
            view = lookup_cell(conn, "wl", SCALE_TOK, digest)
            assert view is not None
            assert view.fidelity == "exact"  # ...but exact always wins
            assert view.ipc == 1500.0 / 1000.0
            assert view.rel_err_bound == 0.0
            by_tier = dict(
                (tag, count) for tag, _, count in status.by_tag
            )
            assert by_tier == {SCHEMA_TAG: 1, ANALYTIC_SCHEMA_TAG: 1}
        finally:
            conn.close()

    def test_current_tag_beats_stale_tag(self, tmp_path):
        digest = "ef" * 32
        _put_stale(Path(tmp_path), "wl", digest, 3000.0)
        ResultCache(tmp_path).put("wl", SCALE_TOK, digest, _result("wl", 1000.0))
        refresh_warehouse(tmp_path)
        conn = connect(tmp_path)
        try:
            assert read_status(conn).cells == 2
            view = lookup_cell(conn, "wl", SCALE_TOK, digest)
            assert view is not None
            assert view.ipc == 1500.0 / 1000.0  # the current tag's record
        finally:
            conn.close()

    def test_analytic_only_cell_surfaces_its_bound(self, tmp_path):
        digest = "cd" * 32
        ResultCache(tmp_path, ANALYTIC_SCHEMA_TAG).put(
            "wl", SCALE_TOK, digest, _analytic_result("wl", 800.0, 0.0123)
        )
        refresh_warehouse(tmp_path)
        conn = connect(tmp_path)
        try:
            view = lookup_cell(conn, "wl", SCALE_TOK, digest)
            assert view is not None
            assert view.fidelity == "analytic"
            assert view.rel_err_bound == 0.0123
        finally:
            conn.close()

    def test_contour_marks_analytic_cells_and_reports_bound(self, tmp_path):
        """Smoke grid with exact baselines but analytic mechanism cells:
        every rendered value carries the ``~`` mark and the footer states
        the worst combined error bound."""
        spec = get_sweep("smoke")
        scale = get_scale("quick")
        workloads = spec.workloads("paper")
        cache = ResultCache(tmp_path)
        analytic = ResultCache(tmp_path, ANALYTIC_SCHEMA_TAG)
        for point in spec.points(scale):
            for wl in workloads:
                base_key = SimJob(wl, point.baseline(), scale.workload_scale).key
                cache.put(*base_key, _result(wl, 1000.0, mechanism="none"))
                mech_key = SimJob(wl, point.config(), scale.workload_scale).key
                analytic.put(*mech_key, _analytic_result(wl, 800.0, 0.02))
        refresh_warehouse(tmp_path)
        conn = connect(tmp_path)
        try:
            output = render_contour(conn, "smoke", scale="quick", workload_set="paper")
        finally:
            conn.close()
        assert "1.2500~" in output  # 1000/800, marked as estimated
        assert "worst combined rel. err bound 0.0200" in output
        assert "no consolidated result yet" not in output


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def _main(self, *argv: str) -> int:
        from repro.warehouse.__main__ import main

        return main(list(argv))

    def test_refresh_status_roundtrip(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("wl", SCALE_TOK, "e" * 64, _result("wl", 1000.0))
        assert self._main("refresh", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "+1 inserted" in out
        assert self._main("status", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert WAREHOUSE_SCHEMA in out and "1 cell(s)" in out

    def test_queries_and_gate_require_a_warehouse(self, tmp_path, capsys):
        assert self._main("status", "--cache-dir", str(tmp_path)) == 1
        for query in QUERY_NAMES:
            argv = [query, "smoke"] if query == "contour" else [query]
            assert self._main(*argv, "--cache-dir", str(tmp_path)) == 1
        assert "no warehouse under" in capsys.readouterr().err
        for removed in ("gate", "trajectory"):
            with pytest.raises(SystemExit) as exc:
                self._main(removed, "--cache-dir", str(tmp_path))
            assert exc.value.code == 2

    def test_bad_query_option_is_a_usage_error(self, tmp_path, capsys):
        """An option error exits 2 like every CLI's; a query error exits 1."""
        refresh_warehouse(tmp_path)
        for bad in (["--scale", "bogus"], ["--workload-set", "bogus"]):
            argv = ["contour", "smoke", "--cache-dir", str(tmp_path), *bad]
            assert self._main(*argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "bogus" in err

    def test_sensitivity_rejects_axis_sweeps(self, tmp_path, capsys):
        refresh_warehouse(tmp_path)
        assert (
            self._main("sensitivity", "smoke", "--cache-dir", str(tmp_path)) == 1
        )
        err = capsys.readouterr().err
        assert "knob axes" in err
