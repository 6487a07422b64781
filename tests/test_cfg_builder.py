"""Tests for the static CFG model and the synthetic program builder."""

import bisect
import gc
import random
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.builder import _cum_weights, _weighted_pick, build_cfg, reachable_blocks
from repro.workloads.cfg import CFG_ARRAYS, ControlFlowGraph, Function, StaticBlock
from repro.workloads.isa import BranchKind, block_of
from repro.workloads.profiles import ALL_PROFILES, APACHE, get_profile
from repro.workloads.trace import generate_trace
from repro.workloads.workload import trace_seed


@pytest.fixture(scope="module")
def cfg() -> ControlFlowGraph:
    return build_cfg(APACHE.scaled(0.1))


class TestStaticBlock:
    def test_branch_pc_is_last_instruction(self):
        blk = StaticBlock(start=0x100, n_instrs=4, kind=BranchKind.COND,
                          target=0x200, func_id=0)
        assert blk.branch_pc == 0x10C

    def test_fallthrough_follows_branch(self):
        blk = StaticBlock(start=0x100, n_instrs=4, kind=BranchKind.COND,
                          target=0x200, func_id=0)
        assert blk.fallthrough == 0x110

    def test_size_bytes(self):
        blk = StaticBlock(start=0, n_instrs=5, kind=BranchKind.JUMP,
                          target=0x40, func_id=0)
        assert blk.size_bytes == 20

    def test_is_loop_requires_cond(self):
        blk = StaticBlock(start=0, n_instrs=2, kind=BranchKind.JUMP,
                          target=0x40, func_id=0, loop_mean=5.0)
        assert not blk.is_loop

    def test_blocks_and_functions_carry_no_instance_dict(self, cfg):
        """Slotted: a block or function view allocates no ``__dict__``."""
        assert not any(hasattr(blk, "__dict__") for blk in cfg.blocks.values())
        assert not any(hasattr(func, "__dict__") for func in cfg.functions)


class TestBuilderStructure:
    def test_deterministic(self):
        a = build_cfg(APACHE.scaled(0.1))
        b = build_cfg(APACHE.scaled(0.1))
        assert sorted(a.blocks) == sorted(b.blocks)
        assert a.entry == b.entry

    def test_validates(self, cfg):
        cfg.validate()  # must not raise

    def test_entry_is_driver_dispatch(self, cfg):
        driver = cfg.functions[0]
        assert driver.name == "driver"
        assert cfg.entry == driver.entry

    def test_driver_is_indirect_dispatch_loop(self, cfg):
        driver = cfg.functions[0]
        dispatch = cfg.blocks[driver.block_starts[0]]
        tail = cfg.blocks[driver.block_starts[1]]
        assert dispatch.kind == BranchKind.IND_CALL
        assert tail.kind == BranchKind.JUMP
        assert tail.target == dispatch.start

    def test_driver_dispatches_all_transaction_types(self, cfg):
        profile = APACHE.scaled(0.1)
        driver = cfg.functions[0]
        dispatch = cfg.blocks[driver.block_starts[0]]
        assert len(dispatch.indirect_targets) == profile.n_transaction_types

    def test_every_function_ends_with_ret(self, cfg):
        for func in cfg.functions[1:]:
            last = cfg.blocks[func.block_starts[-1]]
            assert last.kind == BranchKind.RET

    def test_blocks_within_function_are_contiguous(self, cfg):
        for func in cfg.functions:
            for a, b in zip(func.block_starts, func.block_starts[1:]):
                assert cfg.blocks[a].fallthrough == b

    def test_functions_do_not_overlap(self, cfg):
        spans = sorted(
            (func.block_starts[0], cfg.blocks[func.block_starts[-1]].fallthrough)
            for func in cfg.functions
        )
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_code_footprint_close_to_profile(self, cfg):
        profile = APACHE.scaled(0.1)
        assert cfg.code_bytes == pytest.approx(profile.code_kb * 1024, rel=0.25)

    def test_conditional_targets_are_forward_or_loops(self, cfg):
        for blk in cfg.blocks.values():
            if blk.kind != BranchKind.COND:
                continue
            if blk.is_loop:
                assert blk.target < blk.start
            else:
                assert blk.target > blk.start

    def test_calls_target_lower_layer_entries(self, cfg):
        entry_layers = {f.entry: f.layer for f in cfg.functions}
        func_layers = {f.func_id: f.layer for f in cfg.functions}
        for blk in cfg.blocks.values():
            if blk.kind == BranchKind.CALL:
                assert blk.target in entry_layers
                assert entry_layers[blk.target] > func_layers[blk.func_id]

    def test_loops_have_call_free_bodies(self, cfg):
        starts = {f.func_id: list(f.block_starts) for f in cfg.functions}
        for blk in cfg.blocks.values():
            if not blk.is_loop:
                continue
            fn_starts = starts[blk.func_id]
            body = [s for s in fn_starts if blk.target <= s < blk.start]
            for s in body:
                assert cfg.blocks[s].kind not in (BranchKind.CALL, BranchKind.IND_CALL)

    def test_branch_map_covers_all_blocks(self, cfg):
        total = sum(
            len(cfg.branches_in_cache_block(cb))
            for cb in {block_of(b.branch_pc) for b in cfg.blocks.values()}
        )
        assert total == len(cfg.blocks)

    def test_branch_map_sorted_by_pc(self, cfg):
        for blk in list(cfg.blocks.values())[:200]:
            entries = cfg.branches_in_cache_block(block_of(blk.branch_pc))
            pcs = [e.branch_pc for e in entries]
            assert pcs == sorted(pcs)

    def test_n_static_branches_equals_blocks(self, cfg):
        assert cfg.n_static_branches == cfg.n_blocks

    def test_block_at_raises_for_unknown(self, cfg):
        with pytest.raises(WorkloadError):
            cfg.block_at(1)


class TestColumnarViews:
    """The CFG holds columns; its views must give back exactly what it was
    built from."""

    def test_views_return_the_builders_blocks(self, monkeypatch):
        import repro.workloads.builder as builder

        seen = {}

        def recording(rows, functions):
            seen["rows"], seen["functions"] = list(rows), list(functions)
            return builder_cfg_arrays(seen["rows"], seen["functions"])

        builder_cfg_arrays = builder.cfg_arrays
        monkeypatch.setattr(builder, "cfg_arrays", recording)
        cfg = build_cfg(APACHE.scaled(0.05))
        want = [StaticBlock(*row) for row in seen["rows"]]
        assert list(cfg.blocks) == [blk.start for blk in want]
        assert list(cfg.blocks.values()) == want
        assert [cfg.block_at(blk.start) for blk in want] == want
        assert [cfg.block(row) for row in range(cfg.n_blocks)] == want
        assert cfg.functions == seen["functions"]
        assert all(type(blk.kind) is BranchKind for blk in cfg.blocks.values())

    def test_round_trip_through_static_blocks(self, cfg):
        again = ControlFlowGraph(cfg.blocks, cfg.functions, cfg.entry, cfg.name)
        assert again.arrays == cfg.arrays
        assert again.blocks == cfg.blocks

    def test_blocks_view_is_read_only(self, cfg):
        with pytest.raises(TypeError):
            cfg.blocks[cfg.entry] = cfg.block_at(cfg.entry)

    def test_duplicate_start_rejected(self):
        blk = StaticBlock(0x100, 2, BranchKind.RET, 0, 0)
        with pytest.raises(WorkloadError, match="two blocks start at 0x100"):
            ControlFlowGraph([blk, blk], [], 0x100)

    def test_misaligned_start_rejected(self):
        blocks = [
            StaticBlock(0x100, 2, BranchKind.RET, 0, 0),
            StaticBlock(0x10A, 2, BranchKind.RET, 0, 0),
        ]
        with pytest.raises(WorkloadError, match="0x10a is not instruction-aligned"):
            ControlFlowGraph(blocks, [], 0x100)

    def test_huge_code_span_rejected_before_indexing(self):
        blocks = [
            StaticBlock(0, 2, BranchKind.RET, 0, 0),
            StaticBlock(1 << 40, 2, BranchKind.RET, 0, 0),
        ]
        with pytest.raises(WorkloadError, match="code span"):
            ControlFlowGraph(blocks, [], 0)

    def test_pc_past_32_bits_rejected_naming_it(self):
        # A small span, so only the column width can refuse it.
        blocks = [
            StaticBlock(1 << 32, 2, BranchKind.RET, 0, 0),
            StaticBlock((1 << 32) + 8, 2, BranchKind.RET, 0, 0),
        ]
        with pytest.raises(WorkloadError, match=r"block\.start value 4294967296 "):
            ControlFlowGraph(blocks, [], 1 << 32)

    def test_target_past_32_bits_rejected_naming_it(self):
        blocks = [StaticBlock(0x400000, 2, BranchKind.JUMP, 1 << 33, 0)]
        with pytest.raises(WorkloadError, match=r"block\.target value 8589934592 "):
            ControlFlowGraph(blocks, [], 0x400000)

    def test_block_of_65536_instructions_rejected_naming_it(self):
        blocks = [StaticBlock(0x400000, 1 << 16, BranchKind.RET, 0, 0)]
        with pytest.raises(WorkloadError, match=r"block\.n_instrs value 65536 "):
            ControlFlowGraph(blocks, [], 0x400000)

    def test_from_arrays_converts_and_checks_wider_arrays(self, cfg):
        wide = [
            array("q" if tc == "I" else tc, arr)
            for (_, tc), arr in zip(CFG_ARRAYS, cfg.arrays)
        ]
        again = ControlFlowGraph.from_arrays(wide, cfg.function_names, cfg.entry)
        assert again.arrays == cfg.arrays
        assert [arr.typecode for arr in again.arrays] == [tc for _, tc in CFG_ARRAYS]
        wide[0][0] = 1 << 32
        with pytest.raises(WorkloadError, match=r"block\.start value 4294967296 "):
            ControlFlowGraph.from_arrays(wide, cfg.function_names, cfg.entry)

    def test_empty_graph(self):
        empty = ControlFlowGraph({}, [], 0)
        assert (empty.n_blocks, empty.code_bytes, len(empty.blocks)) == (0, 0, 0)
        assert empty.row_of(0) == -1 and empty.next_block_start(0) is None
        assert len(empty.branch_rows(0)) == 0


#: Aligned, distinct block starts with sizes: dense runs and sparse gaps.
_layouts = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(1, 24)),
    min_size=1,
    max_size=60,
    unique_by=lambda item: item[0],
)


def _layout_cfg(layout) -> ControlFlowGraph:
    base = 0x40_0000
    blocks = [
        StaticBlock(base + 4 * slot, n_instrs, BranchKind.RET, 0, 0)
        for slot, n_instrs in layout
    ]
    return ControlFlowGraph(blocks, [], blocks[0].start)


def _probe_pcs(cfg: ControlFlowGraph):
    """Every int worth asking about: each start and its misaligned and
    neighbouring pcs, both ends of the span and beyond, and 0."""
    starts = list(cfg.block_start)
    lo, hi = min(starts), max(starts)
    near = {s + d for s in starts for d in (-5, -4, -3, -1, 1, 2, 4, 63, 64)}
    return sorted(near | {0, -4, lo - (1 << 20), hi + (1 << 20), hi + 4, lo - 4})


class TestColumnarIndexes:
    """``row_of``, ``next_block_start`` and ``branch_rows`` against plain
    dict / sorted-list reference answers, on generated layouts."""

    @settings(max_examples=150, deadline=None)
    @given(layout=_layouts, extra=st.integers(-(1 << 40), 1 << 40))
    def test_row_of_answers_like_dict_get(self, layout, extra):
        cfg = _layout_cfg(layout)
        ref = {start: row for row, start in enumerate(cfg.block_start)}
        for pc in [*_probe_pcs(cfg), extra]:
            assert cfg.row_of(pc) == ref.get(pc, -1), hex(pc)
            assert (pc in cfg.blocks) == (pc in ref)

    @settings(max_examples=100, deadline=None)
    @given(layout=_layouts)
    def test_next_block_start_matches_bisect(self, layout):
        cfg = _layout_cfg(layout)
        starts = sorted(cfg.block_start)
        for pc in _probe_pcs(cfg):
            idx = bisect.bisect_right(starts, pc)
            want = starts[idx] if idx < len(starts) else None
            assert cfg.next_block_start(pc) == want, hex(pc)

    @settings(max_examples=100, deadline=None)
    @given(layout=_layouts)
    def test_branch_rows_match_a_filtered_sort(self, layout):
        cfg = _layout_cfg(layout)
        rows = range(cfg.n_blocks)
        blocks = {block_of(cfg.branch_pc(row)) for row in rows}
        for cb in sorted(blocks | {min(blocks) - 1, max(blocks) + 1, 0}):
            want = sorted(
                (row for row in rows if block_of(cfg.branch_pc(row)) == cb),
                key=cfg.branch_pc,
            )
            assert list(cfg.branch_rows(cb)) == want


    def test_row_numbers_past_two_bytes(self):
        # 2**15 rows and more switch the indexes from 'h' to 'i' entries.
        layout = [(3 * i, 2) for i in range((1 << 15) + 5)]
        cfg = _layout_cfg(layout)
        last = cfg.n_blocks - 1
        assert cfg.row_of(cfg.block_start[last]) == last
        assert cfg.row_of(cfg.block_start[last] + 4) == -1
        cb = block_of(cfg.branch_pc(last))
        want = [row for row in range(last - 8, last + 1) if block_of(cfg.branch_pc(row)) == cb]
        assert list(cfg.branch_rows(cb)) == want
        assert cfg.next_block_start(cfg.block_start[last - 1]) == cfg.block_start[last]


#: Live bytes a resident CFG may keep per block (tracemalloc): this quick
#: oracle build keeps 60.4 B (the columns and both indexes), plus 15%.
MAX_BYTES_PER_BLOCK = 70

#: Live bytes a quick trace may keep per record: 9 B of columns (a 4-byte
#: start, a 2-byte size, three 1-byte fields, no stored next pc) plus the
#: arrays' growth slack.
MAX_TRACE_BYTES_PER_RECORD = 10


def test_quick_build_retains_few_bytes_per_block():
    gc.collect()
    tracemalloc.start()
    try:
        cfg = build_cfg(get_profile("oracle").scaled(0.25))
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_block = live / cfg.n_blocks
    assert per_block <= MAX_BYTES_PER_BLOCK, f"{per_block:.1f} B per block"


def test_quick_trace_retains_few_bytes_per_record():
    profile = get_profile("oracle").scaled(0.25)
    cfg = build_cfg(profile)
    gc.collect()
    tracemalloc.start()
    try:
        trace = generate_trace(cfg, profile.default_trace_instrs, seed=trace_seed(profile))
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_record = live / len(trace)
    assert per_record <= MAX_TRACE_BYTES_PER_RECORD, f"{per_record:.2f} B per record"


class TestReachability:
    def test_entry_reachable(self, cfg):
        assert cfg.entry in reachable_blocks(cfg)

    def test_handlers_reachable(self, cfg):
        reachable = reachable_blocks(cfg)
        for func in cfg.functions:
            if func.layer == 1:
                assert func.entry in reachable

    def test_most_code_reachable(self, cfg):
        reachable = reachable_blocks(cfg)
        assert len(reachable) / cfg.n_blocks > 0.5


class TestAllProfilesBuild:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_builds_and_validates(self, profile):
        small = profile.scaled(0.05)
        cfg = build_cfg(small)
        cfg.validate()
        assert cfg.n_blocks > 50


class TestValidationCatchesCorruption:
    def test_bad_target_rejected(self):
        blocks = {
            0x100: StaticBlock(0x100, 2, BranchKind.JUMP, 0x999, 0),
        }
        funcs = [Function(0, "f", 0x100, 0, (0x100,))]
        cfg = ControlFlowGraph(blocks=blocks, functions=funcs, entry=0x100)
        with pytest.raises(WorkloadError):
            cfg.validate()

    def test_bad_entry_rejected(self):
        blocks = {0x100: StaticBlock(0x100, 2, BranchKind.RET, 0, 0)}
        funcs = [Function(0, "f", 0x100, 0, (0x100,))]
        cfg = ControlFlowGraph(blocks=blocks, functions=funcs, entry=0x500)
        with pytest.raises(WorkloadError):
            cfg.validate()

    def test_indirect_without_targets_rejected(self):
        blocks = {
            0x100: StaticBlock(0x100, 2, BranchKind.IND_JUMP, 0x100, 0),
        }
        funcs = [Function(0, "f", 0x100, 0, (0x100,))]
        cfg = ControlFlowGraph(blocks=blocks, functions=funcs, entry=0x100)
        with pytest.raises(WorkloadError):
            cfg.validate()

    def test_empty_block_rejected(self):
        blocks = {0x100: StaticBlock(0x100, 0, BranchKind.RET, 0, 0)}
        funcs = [Function(0, "f", 0x100, 0, (0x100,))]
        cfg = ControlFlowGraph(blocks=blocks, functions=funcs, entry=0x100)
        with pytest.raises(WorkloadError):
            cfg.validate()


def _small_cfg(
    blocks: dict[int, dict] | None = None,
    functions: list[Function] | None = None,
) -> ControlFlowGraph:
    """A valid two-function CFG; ``blocks`` maps a start to field overrides.

    ``main`` (0x100..0x124): COND, CALL g, IND_JUMP, a COND correlated with
    the first one, RET. ``g`` (0x200..0x20c): two RETs.
    """
    base = {
        0x100: StaticBlock(0x100, 2, BranchKind.COND, 0x110, 0),
        0x108: StaticBlock(0x108, 2, BranchKind.CALL, 0x200, 0),
        0x110: StaticBlock(
            0x110, 2, BranchKind.IND_JUMP, 0x118, 0,
            indirect_targets=((0x118, 1.0), (0x120, 0.5)),
        ),
        0x118: StaticBlock(0x118, 2, BranchKind.COND, 0x120, 0, corr_src=0x100),
        0x120: StaticBlock(0x120, 2, BranchKind.RET, 0, 0),
        0x200: StaticBlock(0x200, 2, BranchKind.RET, 0, 1),
        0x208: StaticBlock(0x208, 2, BranchKind.RET, 0, 1),
    }
    for start, fields in (blocks or {}).items():
        base[start] = replace(base[start], **fields)
    if functions is None:
        functions = [
            Function(0, "main", 0x100, 0, (0x100, 0x108, 0x110, 0x118, 0x120)),
            Function(1, "g", 0x200, 1, (0x200, 0x208)),
        ]
    return ControlFlowGraph(blocks=base, functions=functions, entry=0x100)


class TestValidationErrorPaths:
    """One case per ``raise`` in :meth:`ControlFlowGraph.validate`."""

    def test_base_cfg_is_valid(self):
        _small_cfg().validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({0x108: {"target": 0x208}}, "call at 0x10c targets non-entry 0x208"),
            (
                {0x100: {"n_instrs": 3}},
                "block 0x100 \\(COND\\) falls through to 0x10c, which is not a block start",
            ),
            (
                {0x110: {"indirect_targets": ((0x118, 1.0), (0x124, 0.5))}},
                "indirect target 0x124 is not a block start",
            ),
            (
                {0x110: {"indirect_targets": ((0x118, 1.0), (0x120, 0.0))}},
                "indirect target 0x120 has non-positive weight",
            ),
            (
                {0x110: {"indirect_targets": ((0x120, 1.0),)}},
                "indirect branch at 0x114: primary target not in the target set",
            ),
            ({0x100: {"bias": 1.5}}, "conditional at 0x104 has bias 1.5"),
            ({0x100: {"bias": -0.1}}, "conditional at 0x104 has bias -0.1"),
            (
                {0x118: {"loop_mean": 4.0}},
                "correlation on non-conditional branch at 0x11c",
            ),
            (
                {0x120: {"corr_src": 0x100}},
                "correlation on non-conditional branch at 0x124",
            ),
            (
                {0x118: {"corr_src": 0x108}},
                "correlated branch at 0x11c has a non-conditional source 0x108",
            ),
            (
                {0x118: {"corr_src": 0x400}},
                "correlated branch at 0x11c has a non-conditional source 0x400",
            ),
        ],
    )
    def test_block_corruption_rejected(self, overrides, message):
        with pytest.raises(WorkloadError, match=message):
            _small_cfg(blocks=overrides).validate()

    def test_loop_branch_bias_is_not_checked(self):
        _small_cfg(blocks={0x100: {"loop_mean": 3.0, "bias": 7.0}}).validate()

    def test_function_listing_missing_block_rejected(self):
        funcs = [
            Function(0, "main", 0x100, 0, (0x100, 0x108, 0x110, 0x118, 0x120, 0x128)),
            Function(1, "g", 0x200, 1, (0x200, 0x208)),
        ]
        with pytest.raises(WorkloadError, match="function main lists missing block 0x128"):
            _small_cfg(functions=funcs).validate()

    def test_function_entry_not_first_block_rejected(self):
        funcs = [
            Function(0, "main", 0x100, 0, (0x100, 0x108, 0x110, 0x118, 0x120)),
            Function(1, "g", 0x208, 1, (0x200, 0x208)),
        ]
        # The call in main targets 0x200, no longer an entry; retarget it.
        cfg = _small_cfg(blocks={0x108: {"target": 0x208}}, functions=funcs)
        with pytest.raises(WorkloadError, match="function g entry is not its first block"):
            cfg.validate()


class TestWeightedPick:
    """``_weighted_pick`` is ``rng.choices(pop, weights=w, k=1)[0]``, exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_matches_choices_and_rng_state(self, seed):
        gen = random.Random(seed)
        for _ in range(40):
            n = gen.randint(1, 9)
            weights = [gen.choice((0.0, gen.random(), gen.uniform(0.0, 50.0), 1))
                       for _ in range(n)]
            if sum(weights) <= 0:
                weights[gen.randrange(n)] = gen.random() + 0.01
            pop = [f"item{i}" for i in range(n)]
            cum = _cum_weights(weights)
            ref, fast = random.Random(seed * 31 + n), random.Random(seed * 31 + n)
            for _ in range(25):
                want = ref.choices(pop, weights=weights, k=1)[0]
                assert _weighted_pick(fast, pop, cum) == want
                assert fast.getstate() == ref.getstate()

    def test_zero_weight_is_never_drawn(self):
        # A leaf function's kind mix: its CALL share is folded away.
        weights = [0.64 + 0.24, 0.0, 0.12]
        pop = ["cond", "call", "jump"]
        cum = _cum_weights(weights)
        ref, fast = random.Random(3), random.Random(3)
        picks = [_weighted_pick(fast, pop, cum) for _ in range(5000)]
        assert picks == [ref.choices(pop, weights=weights, k=1)[0] for _ in range(5000)]
        assert "call" not in picks

    @pytest.mark.parametrize(
        "weights", [[], [0.0, 0.0], [1.0, -1.0], [float("inf"), 1.0]]
    )
    def test_rejects_what_choices_rejects(self, weights):
        with pytest.raises(WorkloadError, match="positive finite total"):
            _cum_weights(weights)
