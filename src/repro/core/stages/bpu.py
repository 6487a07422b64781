"""Branch-prediction unit stage: one basic-block prediction per cycle.

Two variants differ only in how a BTB miss resolves:

* :class:`BPUStage` — the conventional front end: an unknown branch
  degrades into a sequential run; if the branch was actually taken the run
  is a wrong path that squashes at resolve time (cause: BTB miss).
* :class:`MissProbeBPU` — Boomerang (paper Section IV-B): the BPU stalls,
  probes the L1-I/prefetch-buffer for the missing block and predecodes the
  branch out of the returned bytes, walking sequential blocks when the
  block holds no branch at/after the miss address. Detected misses may
  also throttle a few next-line blocks into the prefetch engine.

Wrong paths are really walked over the static CFG so wrong-path prefetches
genuinely fill (or pollute) the prefetch buffer.
"""

from __future__ import annotations

from ...branch.btb import BTBEntry
from ...branch.predictors.base import OraclePredictor
from ...errors import SimulationError
from ...frontend.predecode import boomerang_fill
from ...workloads.trace import COL_KIND, COL_NINSTR, COL_START, COL_TAKEN
from .state import (
    CALL,
    CAUSE_BTB,
    CAUSE_COND,
    CAUSE_NONE,
    CAUSE_TARGET,
    COND,
    IND_CALL,
    IND_JUMP,
    RET,
    PipelineState,
    StageContext,
)

#: Sequential blocks the predecode walk may visit before declaring a bug.
_PREDECODE_WALK_CAP = 16


class BPUStage:
    """Correct-path prediction from the trace + wrong-path CFG walk."""

    name = "bpu"

    __slots__ = (
        "col_start",
        "col_ninstr",
        "col_kind",
        "col_taken",
        "n_records",
        "cfg",
        "code_base",
        "row_by_slot",
        "cfg_start",
        "cfg_n_instrs",
        "cfg_target",
        "btb",
        "predictor",
        "ras",
        "ftq",
        "_ftq_entries",
        "_ftq_depth",
        "perfect_btb",
        "oracle",
        "btb_miss_lookups",
        "btb_miss_stall_cycles",
        "wp_cycles",
    )

    def __init__(self, ctx: StageContext):
        wl = ctx.workload
        # Hot per-prediction reads go straight at the trace columns: one
        # C-level array index per field, no per-record tuple. A record's
        # next pc is the following start (the column holds one more).
        columns = wl.trace.columns
        self.col_start = columns[COL_START]
        self.col_ninstr = columns[COL_NINSTR]
        self.col_kind = columns[COL_KIND]
        self.col_taken = columns[COL_TAKEN]
        self.n_records = len(wl.trace)
        # Static block facts by row; a block start's row is
        # ``row_by_slot[(start - code_base) >> 2]``.
        cfg = wl.cfg
        self.cfg = cfg
        self.code_base = cfg.code_base
        self.row_by_slot = cfg.row_by_slot
        self.cfg_start = cfg.block_start
        self.cfg_n_instrs = cfg.block_n_instrs
        self.cfg_target = cfg.block_target
        self.btb = ctx.btb
        self.predictor = ctx.predictor
        self.ras = ctx.ras
        self.ftq = ctx.ftq
        self._ftq_entries = ctx.ftq.entries
        self._ftq_depth = ctx.ftq.depth
        self.perfect_btb = ctx.config.perfect_btb
        self.oracle = isinstance(ctx.predictor, OraclePredictor)
        self.btb_miss_lookups = 0
        self.btb_miss_stall_cycles = 0
        self.wp_cycles = 0

    # ------------------------------------------------------------------ tick

    def tick(self, state: PipelineState, cycle: int) -> None:
        if state.wrong_path:
            self.wp_cycles += 1
        if cycle < state.bpu_stall_until:
            return
        if state.bmiss is not None:
            self._advance_miss_probe(state, cycle)
            return
        if len(self._ftq_entries) >= self._ftq_depth:
            return
        if not state.wrong_path and state.bpu_idx < self.n_records:
            self._predict(state, cycle)
        elif state.wrong_path:
            self._walk_wrong_path(state, cycle)

    def idle(self, state: PipelineState, cycle: int, n: int) -> None:
        """Accrue ``n`` cycles like ``cycle`` on which ``tick`` only counts."""
        if state.wrong_path:
            self.wp_cycles += n
        if state.bmiss is not None and cycle >= state.bpu_stall_until:
            self.btb_miss_stall_cycles += n  # as _advance_miss_probe counts

    def _advance_miss_probe(self, state: PipelineState, cycle: int) -> None:
        """Only the miss-probe variant ever arms ``state.bmiss``."""
        raise SimulationError(
            f"BTB miss probe armed without a miss-probe BPU at {state.bmiss[0]:#x}"
        )

    # --------------------------------------------------------- correct path

    def _predict(self, state: PipelineState, cycle: int) -> None:
        idx = state.bpu_idx
        start = self.col_start[idx]
        n_instrs = self.col_ninstr[idx]
        kind = self.col_kind[idx]
        taken = self.col_taken[idx]
        actual_next = self.col_start[idx + 1]
        branch_pc = start + (n_instrs - 1) * 4

        if self.perfect_btb:
            entry = True
        else:
            entry = self._lookup(start)

        if entry is None:
            self.btb_miss_lookups += 1
            self._handle_miss(state, cycle, start, n_instrs, taken)
            return

        cause = CAUSE_NONE
        mispredicted_next = -1
        ras = self.ras
        if kind == COND:
            predictor = self.predictor
            if self.oracle:
                predictor.stage(bool(taken))
            pred = predictor.predict(branch_pc)
            predictor.update(branch_pc, bool(taken))
            if pred != bool(taken):
                cause = CAUSE_COND
                if pred:
                    row = self.row_by_slot[(start - self.code_base) >> 2]
                    mispredicted_next = self.cfg_target[row]
                else:
                    mispredicted_next = start + n_instrs * 4
        elif kind == CALL:
            ras.push(start + n_instrs * 4)
        elif kind == RET:
            pred_target = ras.pop()
            if pred_target != actual_next:
                cause = CAUSE_TARGET
                mispredicted_next = (
                    pred_target if pred_target is not None else start + n_instrs * 4
                )
        elif kind == IND_CALL or kind == IND_JUMP:
            if self.perfect_btb:
                pred_target = actual_next
            else:
                pred_target = entry[2]
            if kind == IND_CALL:
                ras.push(start + n_instrs * 4)
            if pred_target != actual_next:
                cause = CAUSE_TARGET
                mispredicted_next = pred_target
                self.btb.update_target(start, actual_next)
        # JUMP: static target, always correct.

        if cause != CAUSE_NONE:
            state.wrong_path = True
            state.wp_pc = mispredicted_next
            state.div_resume_idx = state.bpu_idx + 1
            state.div_cause = cause
            state.ras_snapshot = ras.snapshot()
        else:
            state.bpu_idx += 1
        self.ftq.push(
            (
                start,
                n_instrs,
                state.bpu_idx - (1 if cause == CAUSE_NONE else 0),
                False,
                cause,
                False,
            )
        )

    # ----------------------------------------------------------- wrong path

    def _walk_wrong_path(self, state: PipelineState, cycle: int) -> None:
        # Speculative walk over the static CFG.
        wp_pc = state.wp_pc
        # cfg.row_of, inlined: this runs once per wrong-path block.
        slot = (wp_pc - self.code_base) >> 2
        row_by_slot = self.row_by_slot
        row = row_by_slot[slot] if 0 <= slot < len(row_by_slot) else -1
        if row < 0 or self.cfg_start[row] != wp_pc:
            nxt = self.cfg.next_block_start(wp_pc)
            if nxt is None or nxt - wp_pc > 64:
                n_i = 4
            else:
                n_i = max(1, (nxt - wp_pc) >> 2)
            self.ftq.push((wp_pc, n_i, -1, True, CAUSE_NONE, False))
            state.wp_pc = wp_pc + n_i * 4
            return
        start = wp_pc
        n_i = self.cfg_n_instrs[row]
        if self.perfect_btb:
            entry = BTBEntry(n_i, self.cfg.block_kind[row], self.cfg_target[row])
        else:
            entry = self._lookup(start)
        if entry is None:
            if self._handle_wp_miss(state, cycle, start):
                return  # BPU stalled on a miss probe; nothing enters the FTQ
            state.wp_pc = start + n_i * 4  # straight line
        else:
            kind = entry[1]
            if kind == COND:
                pred = self.predictor.predict(start + (entry[0] - 1) * 4)
                state.wp_pc = entry[2] if pred else start + entry[0] * 4
            elif kind == CALL or kind == IND_CALL:
                self.ras.push(start + entry[0] * 4)
                state.wp_pc = entry[2]
            elif kind == RET:
                popped = self.ras.pop()
                state.wp_pc = popped if popped is not None else start + entry[0] * 4
            else:
                state.wp_pc = entry[2]
        self.ftq.push((start, n_i, -1, True, CAUSE_NONE, False))

    # ----------------------------------------------------- overridable bits

    def _lookup(self, start: int) -> BTBEntry | None:
        """BTB lookup for one basic-block start."""
        return self.btb.lookup(start)

    def _handle_miss(
        self,
        state: PipelineState,
        cycle: int,
        start: int,
        n_instrs: int,
        taken: int,
    ) -> None:
        """Correct-path BTB miss: degrade into a sequential run.

        If the unknown branch was actually taken the run diverges and the
        eventual squash is charged to the BTB (Figure 7's dominant cause).
        """
        if taken:
            cause = CAUSE_BTB
            state.wrong_path = True
            state.wp_pc = start + n_instrs * 4
            state.div_resume_idx = state.bpu_idx + 1
            state.div_cause = CAUSE_BTB
            state.ras_snapshot = self.ras.snapshot()
        else:
            cause = CAUSE_NONE
            state.bpu_idx += 1
        self.ftq.push(
            (
                start,
                n_instrs,
                state.bpu_idx - (0 if taken else 1),
                False,
                cause,
                True,
            )
        )

    def _handle_wp_miss(self, state: PipelineState, cycle: int, start: int) -> bool:
        """Wrong-path BTB miss; returns True if the BPU stalled on it."""
        return False

    # -------------------------------------------------------------- helpers

    def counters(self) -> dict[str, int]:
        return {
            "btb_miss_lookups": self.btb_miss_lookups,
            "btb_miss_stall_cycles": self.btb_miss_stall_cycles,
            "wp_cycles": self.wp_cycles,
        }


class MissProbeBPU(BPUStage):
    """Boomerang BPU: BTB misses stall and resolve via an L1-I probe."""

    name = "bpu+miss-probe"

    __slots__ = (
        "mem",
        "btb_buf",
        "predecode_latency",
        "throttle_blocks",
        "_fill",
    )

    def __init__(self, ctx: StageContext):
        super().__init__(ctx)
        self.mem = ctx.mem
        self.btb_buf = ctx.btb_buf
        self.predecode_latency = ctx.config.core.predecode_latency
        self.throttle_blocks = ctx.config.prefetch.throttle_blocks
        # Predecode entry point; a pure function of (cfg, block, miss_pc),
        # bound at construction so a per-engine wrapper (tracing, timing)
        # can stand in for it.
        self._fill = boomerang_fill

    def _advance_miss_probe(self, state: PipelineState, cycle: int) -> None:
        """One cycle of the in-flight BTB-miss probe state machine."""
        self.btb_miss_stall_cycles += 1
        bmiss = state.bmiss
        if cycle < bmiss[2]:
            return
        # Predecode the fetched block; walk forward if the block holds no
        # branch at/after the miss address.
        filled, others = self._fill(self.cfg, bmiss[1], bmiss[0])
        btb_buf = self.btb_buf
        for pc_o, entry_o in others:
            btb_buf.insert(pc_o, entry_o)
        if filled is not None:
            self.btb.insert(filled[0], filled[1])
            state.bmiss = None
        else:
            bmiss[3] += 1
            if bmiss[3] > _PREDECODE_WALK_CAP:
                raise SimulationError(
                    f"predecode walk exceeded cap at {bmiss[0]:#x}"
                )
            bmiss[1] += 1
            bmiss[2] = self.mem.data_ready(bmiss[1], cycle) + self.predecode_latency

    def _lookup(self, start: int) -> BTBEntry | None:
        """BTB lookup that promotes a staged prefetch-buffer entry on miss."""
        entry = self.btb.lookup(start)
        if entry is None:
            staged = self.btb_buf.take(start)
            if staged is not None:
                self.btb.insert(start, staged)
                return staged
        return entry

    def _set_bmiss(self, state: PipelineState, cycle: int, start: int) -> None:
        """Stall the BPU on a miss probe for the block holding ``start``."""
        block = start >> 6
        mem = self.mem
        resident = mem.is_resident_or_inflight(block)
        state.bmiss = [
            start,
            block,
            mem.data_ready(block, cycle) + self.predecode_latency,
            0,
        ]
        throttle = self.throttle_blocks
        if throttle and not resident:
            throttle_q = state.throttle_q
            for off in range(1, throttle + 1):
                throttle_q.append(block + off)

    def _handle_miss(
        self,
        state: PipelineState,
        cycle: int,
        start: int,
        n_instrs: int,
        taken: int,
    ) -> None:
        self._set_bmiss(state, cycle, start)

    def _handle_wp_miss(self, state: PipelineState, cycle: int, start: int) -> bool:
        self._set_bmiss(state, cycle, start)
        return True
