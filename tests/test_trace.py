"""Tests for the dynamic trace walker and its columnar representation."""

import json
import pathlib
from array import array

import pytest

from tuple_baseline import tuple_walk

from repro.errors import WorkloadError
from repro.workloads.builder import build_cfg
from repro.workloads.isa import BranchKind, EntryKind
from repro.workloads.profiles import APACHE, STREAMING, get_profile
from repro.workloads.trace import (
    COL_KIND,
    COL_START,
    COLUMN_SPECS,
    REC_ENTRY,
    REC_KIND,
    REC_NEXT,
    REC_NINSTR,
    REC_START,
    REC_TAKEN,
    TraceBuilder,
    generate_trace,
    summarize,
    taken_conditional_distances,
)
from repro.workloads.tracestore import trace_seed


@pytest.fixture(scope="module")
def cfg():
    return build_cfg(APACHE.scaled(0.1))


@pytest.fixture(scope="module")
def trace(cfg):
    return generate_trace(cfg, 40_000, seed=7)


@pytest.fixture(scope="module")
def records(trace):
    return list(trace)


class TestWalkerBasics:
    def test_length_reached(self, trace):
        assert trace.n_instrs >= 40_000

    def test_deterministic(self, cfg, trace):
        again = generate_trace(cfg, 40_000, seed=7)
        assert again.columns == trace.columns

    def test_seed_changes_walk(self, cfg, trace):
        other = generate_trace(cfg, 40_000, seed=8)
        assert other.columns != trace.columns

    def test_rejects_zero_length(self, cfg):
        with pytest.raises(WorkloadError):
            generate_trace(cfg, 0)

    def test_records_reference_real_blocks(self, cfg, records):
        for rec in records[:500]:
            assert rec[REC_START] in cfg.blocks

    def test_record_sizes_match_static(self, cfg, records):
        for rec in records[:500]:
            assert rec[REC_NINSTR] == cfg.blocks[rec[REC_START]].n_instrs


class TestControlFlowConsistency:
    def test_successors_are_consistent(self, cfg, records):
        """next_pc of each record equals start of the next record."""
        for cur, nxt in zip(records[:2000], records[1:2001]):
            assert cur[REC_NEXT] == nxt[REC_START]

    def test_not_taken_goes_to_fallthrough(self, cfg, records):
        for rec in records[:2000]:
            if not rec[REC_TAKEN]:
                blk = cfg.blocks[rec[REC_START]]
                assert rec[REC_NEXT] == blk.fallthrough

    def test_direct_branches_go_to_static_target(self, cfg, records):
        for rec in records[:2000]:
            blk = cfg.blocks[rec[REC_START]]
            if rec[REC_TAKEN] and blk.kind in (BranchKind.COND, BranchKind.JUMP,
                                               BranchKind.CALL):
                assert rec[REC_NEXT] == blk.target

    def test_indirect_targets_come_from_target_set(self, cfg, records):
        for rec in records[:5000]:
            blk = cfg.blocks[rec[REC_START]]
            if blk.kind in (BranchKind.IND_CALL, BranchKind.IND_JUMP):
                allowed = {t for t, _ in blk.indirect_targets}
                assert rec[REC_NEXT] in allowed

    def test_unconditional_always_taken(self, records):
        for rec in records[:2000]:
            if rec[REC_KIND] != BranchKind.COND:
                assert rec[REC_TAKEN] == 1

    def test_calls_and_returns_balance(self, cfg, records):
        """Returns always resume at the fall-through of a prior call."""
        stack = []
        for rec in records:
            blk = cfg.blocks[rec[REC_START]]
            if blk.kind in (BranchKind.CALL, BranchKind.IND_CALL):
                stack.append(blk.fallthrough)
            elif blk.kind == BranchKind.RET and stack:
                assert rec[REC_NEXT] == stack.pop()


class TestEntryKinds:
    def test_first_record_sequential(self, records):
        assert records[0][REC_ENTRY] == EntryKind.SEQUENTIAL

    def test_entry_kind_matches_previous_branch(self, records):
        for cur, nxt in zip(records[:2000], records[1:2001]):
            if not cur[REC_TAKEN]:
                expected = EntryKind.SEQUENTIAL
            elif cur[REC_KIND] == BranchKind.COND:
                expected = EntryKind.CONDITIONAL
            else:
                expected = EntryKind.UNCONDITIONAL
            assert nxt[REC_ENTRY] == expected


class TestLoopsAndCorrelation:
    def test_loop_branches_repeat_taken(self, cfg, records):
        """A loop branch's taken-run should approximate its fixed trips."""
        from collections import defaultdict
        runs = defaultdict(list)
        current = defaultdict(int)
        for rec in records:
            blk = cfg.blocks[rec[REC_START]]
            if not blk.is_loop:
                continue
            if rec[REC_TAKEN]:
                current[blk.start] += 1
            else:
                runs[blk.start].append(current[blk.start])
                current[blk.start] = 0
        # Trips are fixed per site: every completed activation has equal length.
        checked = 0
        for site, lengths in runs.items():
            if len(lengths) >= 2:
                assert len(set(lengths)) == 1, f"site {site:#x} trips vary: {lengths}"
                checked += 1
        assert checked > 0

    def test_correlated_branches_follow_source(self, cfg, records):
        last = {}
        checked = 0
        for rec in records:
            blk = cfg.blocks[rec[REC_START]]
            if blk.kind == BranchKind.COND and blk.corr_src and blk.corr_src in last:
                expected = last[blk.corr_src] ^ (1 if blk.corr_invert else 0)
                assert rec[REC_TAKEN] == expected
                checked += 1
            if blk.kind == BranchKind.COND:
                last[rec[REC_START]] = rec[REC_TAKEN]
        assert checked > 0


class TestSummary:
    def test_counts_add_up(self, trace):
        s = summarize(trace)
        assert s.n_records == len(trace)
        assert sum(s.kind_counts.values()) == s.n_records
        assert s.cond_frac + s.uncond_frac == pytest.approx(1.0)

    def test_footprint_positive(self, trace):
        s = summarize(trace)
        assert s.footprint_kb > 0
        assert s.unique_basic_blocks > 0

    def test_avg_bb_consistent(self, trace):
        s = summarize(trace)
        assert s.avg_bb_instrs == pytest.approx(trace.n_instrs / len(trace))


class TestColumnarRepresentation:
    def test_columns_match_specs(self, trace):
        assert [typecode for _, typecode in COLUMN_SPECS] == ["I", "H", "b", "b", "b"]
        assert len(trace.columns) == len(COLUMN_SPECS)
        for index, (column, (_, typecode)) in enumerate(zip(trace.columns, COLUMN_SPECS)):
            assert isinstance(column, array)
            assert column.typecode == typecode
            # The start column closes with the last record's next pc.
            assert len(column) == len(trace) + (index == COL_START)

    def test_len_and_iter_on_trace(self, trace):
        assert len(trace) == len(trace.columns[COL_KIND])
        first = next(iter(trace))
        start, ninstr, kind, taken, entry = trace.columns
        assert first == (start[0], ninstr[0], kind[0], taken[0], start[1], entry[0])
        assert sum(1 for _ in trace) == len(trace)

    def test_column_accessor(self, trace):
        assert trace.column(REC_KIND) is trace.columns[REC_KIND]

    def test_rejects_ragged_columns(self, cfg):
        from repro.workloads.trace import Trace

        columns = tuple(array(tc) for _, tc in COLUMN_SPECS)
        columns[REC_START].append(cfg.entry)
        with pytest.raises(WorkloadError):
            Trace(cfg=cfg, columns=columns, seed=1)


class TestTraceBuilder:
    def test_chunk_buffer_stays_bounded(self, cfg):
        from repro.workloads.trace import _EMIT_CHUNK

        builder = TraceBuilder()
        rec = (cfg.entry, 4, 0, 1, cfg.entry, 0)
        for i in range(_EMIT_CHUNK * 2 + 17):
            builder.append(rec)
            assert len(builder._buffer) < _EMIT_CHUNK
        assert len(builder) == _EMIT_CHUNK * 2 + 17

    def test_build_flushes_the_tail(self, cfg):
        builder = TraceBuilder()
        builder.extend([(cfg.entry, 2, 1, 1, cfg.entry, 0)] * 3)
        trace = builder.build(cfg, seed=5)
        assert len(trace) == 3
        assert trace.n_instrs == 6  # derived from the ninstr column
        assert trace.seed == 5


class TestColumnarTupleEquivalence:
    """The columnar walker is bit-identical to the tuple-list baseline over
    the golden_quick matrix's workloads (same scale the 8-mechanism golden
    engine harness in test_stages.py runs on)."""

    @pytest.fixture(scope="class")
    def golden_scale(self):
        path = pathlib.Path(__file__).parent / "data" / "golden_quick.json"
        with open(path) as fh:
            return json.load(fh)["workload_scale"]

    @pytest.mark.parametrize(
        "name", ["nutch", "streaming", "apache", "zeus", "oracle", "db2"]
    )
    def test_bit_identical_records(self, golden_scale, name):
        profile = get_profile(name).scaled(golden_scale)
        cfg = build_cfg(profile)
        seed = trace_seed(profile)
        want, executed = tuple_walk(cfg, profile.default_trace_instrs, seed)
        trace = generate_trace(cfg, profile.default_trace_instrs, seed=seed)
        assert trace.n_instrs == executed
        assert list(trace) == want, f"{name}: columnar walk diverged"


class TestDistanceHistogram:
    def test_figure4_property_holds(self):
        cfg = build_cfg(STREAMING.scaled(0.15))
        trace = generate_trace(cfg, 60_000, seed=3)
        hist = taken_conditional_distances(trace)
        total = sum(hist.values())
        within4 = sum(v for d, v in hist.items() if d <= 4)
        assert within4 / total > 0.85  # paper: ~92%

    def test_histogram_counts_match_taken_conds(self, cfg, trace, records):
        hist = taken_conditional_distances(trace)
        taken_conds = sum(
            1 for r in records
            if r[REC_KIND] == BranchKind.COND and r[REC_TAKEN]
        )
        assert sum(hist.values()) == taken_conds
