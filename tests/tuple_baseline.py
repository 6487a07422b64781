"""The seed repo's tuple-list trace implementation, frozen as a baseline.

Two consumers compare the columnar trace subsystem against this reference:

* ``tests/test_trace.py`` — bit-identical record equivalence over the
  golden_quick workloads (same PRNG draw order);
* ``benchmarks/test_trace_columnar.py`` — the generation+iteration timing
  guard.

Keep this verbatim to the pre-columnar implementation: it defines what
"equivalent" and "no slower" mean. It intentionally reuses the walker's
private tuning constants so the baselines cannot drift from the real
implementation's behavioural parameters.
"""

from __future__ import annotations

import random

from repro.workloads.isa import BranchKind, EntryKind, blocks_spanned
from repro.workloads.trace import _draw_trips, _INDIRECT_STICKINESS, _MAX_CALL_DEPTH


def tuple_walk(cfg, n_instrs, seed):
    """The seed tuple-list walker (pre-columnar ``generate_trace`` body)."""
    rng = random.Random(seed)
    # The seed's CFG was a dict of blocks; ``cfg.blocks`` is now a view
    # that builds a block per read, so materialize the dict once.
    blocks = dict(cfg.blocks)
    records = []
    append = records.append
    stack = []
    loop_remaining = {}
    loop_trips = {}
    sticky_target = {}
    last_outcome = {}

    def choose_indirect(blk):
        previous = sticky_target.get(blk.start)
        if previous is not None and rng.random() < _INDIRECT_STICKINESS:
            return previous
        targets = [t for t, _ in blk.indirect_targets]
        weights = [w for _, w in blk.indirect_targets]
        choice = rng.choices(targets, weights=weights, k=1)[0]
        sticky_target[blk.start] = choice
        return choice

    pc = cfg.entry
    executed = 0
    entry_kind = int(EntryKind.SEQUENTIAL)
    while executed < n_instrs:
        blk = blocks[pc]
        kind = blk.kind
        taken = 1
        if kind == BranchKind.COND:
            if blk.loop_mean > 0:
                remaining = loop_remaining.get(pc)
                if remaining is None:
                    remaining = loop_trips.get(pc)
                    if remaining is None:
                        remaining = _draw_trips(rng, blk.loop_mean)
                        loop_trips[pc] = remaining
                if remaining > 0:
                    taken = 1
                    loop_remaining[pc] = remaining - 1
                else:
                    taken = 0
                    loop_remaining.pop(pc, None)
            elif blk.corr_src:
                src_out = last_outcome.get(blk.corr_src)
                if src_out is None:
                    taken = 1 if rng.random() < 0.5 else 0
                else:
                    taken = src_out ^ 1 if blk.corr_invert else src_out
            else:
                taken = 1 if rng.random() < blk.bias else 0
            last_outcome[pc] = taken
            next_pc = blk.target if taken else blk.fallthrough
        elif kind == BranchKind.JUMP:
            next_pc = blk.target
        elif kind == BranchKind.CALL:
            next_pc = blk.target
            if len(stack) < _MAX_CALL_DEPTH:
                stack.append(blk.fallthrough)
        elif kind == BranchKind.IND_CALL:
            next_pc = choose_indirect(blk)
            if len(stack) < _MAX_CALL_DEPTH:
                stack.append(blk.fallthrough)
        elif kind == BranchKind.IND_JUMP:
            next_pc = choose_indirect(blk)
        else:  # RET
            next_pc = stack.pop() if stack else cfg.entry
        append((pc, blk.n_instrs, int(kind), taken, next_pc, entry_kind))
        executed += blk.n_instrs
        if not taken:
            entry_kind = int(EntryKind.SEQUENTIAL)
        elif kind == BranchKind.COND:
            entry_kind = int(EntryKind.CONDITIONAL)
        else:
            entry_kind = int(EntryKind.UNCONDITIONAL)
        pc = next_pc
    return records, executed


def tuple_summarize(records):
    """The seed summarize loop over a tuple-list trace."""
    kind_counts = {}
    taken = 0
    cond = 0
    cond_taken = 0
    unique_bbs = set()
    unique_blocks = set()
    for rec in records:
        kind = rec[2]
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        taken += rec[3]
        if kind == BranchKind.COND:
            cond += 1
            cond_taken += rec[3]
        unique_bbs.add(rec[0])
        unique_blocks.update(blocks_spanned(rec[0], rec[1]))
    return kind_counts, taken, cond, cond_taken, unique_bbs, unique_blocks
