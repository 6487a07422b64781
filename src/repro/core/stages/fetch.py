"""Fetch unit: drain the FTQ head through the L1-I into the decode pipe."""

from __future__ import annotations

from ...branch.btb import BTBEntry
from ...workloads.trace import COL_ENTRY, COL_KIND, COL_START
from .state import (
    CAUSE_NONE,
    CONDK,
    IND_CALL,
    IND_JUMP,
    RET,
    SEQ,
    UNCONDK,
    PipelineState,
    StageContext,
)


class FetchUnit:
    """Fetch up to ``fetch_width`` instructions per cycle from the FTQ head.

    A demand L1-I miss stalls fetch and is charged to the sequential /
    conditional / unconditional class of the block's entry edge
    (Figure 3); wrong-path stall cycles are not charged. While dispatch is
    data-stalled the fetch buffer is full and delivery pauses; the
    BPU/prefetch engine keeps running ahead (that overlap is exactly what
    decoupled prefetching exploits). Cycles where fetch is not the
    bottleneck are not charged as front-end stall cycles.

    Delivering a group whose BPU marked it mis-speculated schedules the
    squash ``resolve_latency`` cycles out; sequential runs past an unknown
    branch insert the decode-discovered entry into the BTB (``learn``).
    """

    name = "fetch"

    __slots__ = (
        "fetch_width",
        "rob_size",
        "decode_latency",
        "resolve_latency",
        "mem",
        "btb",
        "ftq",
        "_ftq_entries",
        "prefetcher",
        "col_entry",
        "col_kind",
        "col_start",
        "code_base",
        "row_by_slot",
        "cfg_target",
        "stall_seq",
        "stall_cond",
        "stall_uncond",
    )

    def __init__(self, ctx: StageContext):
        core = ctx.config.core
        self.fetch_width = core.fetch_width
        self.rob_size = core.rob_size
        self.decode_latency = core.decode_latency
        self.resolve_latency = core.resolve_latency
        self.mem = ctx.mem
        self.btb = ctx.btb
        self.ftq = ctx.ftq
        self._ftq_entries = ctx.ftq.entries
        self.prefetcher = ctx.prefetcher
        columns = ctx.workload.trace.columns
        self.col_entry = columns[COL_ENTRY]
        self.col_kind = columns[COL_KIND]
        self.col_start = columns[COL_START]
        cfg = ctx.workload.cfg
        self.code_base = cfg.code_base
        self.row_by_slot = cfg.row_by_slot
        self.cfg_target = cfg.block_target
        self.stall_seq = 0
        self.stall_cond = 0
        self.stall_uncond = 0

    def tick(self, state: PipelineState, cycle: int) -> None:
        if state.dispatch_stall_until > cycle:
            return
        if state.fetch_ready > cycle:
            self.idle(state, cycle, 1)
            return
        ftq_entries = self._ftq_entries
        if state.cur_entry is None and not ftq_entries:
            return  # nothing fetchable; any future miss re-sets stall_cls
        state.stall_cls = -1
        ftq = self.ftq
        mem = self.mem
        prefetcher = self.prefetcher
        col_entry = self.col_entry
        rob_size = self.rob_size
        rob_instrs = state.rob_instrs
        decode_q = state.decode_q
        decode_instrs = state.decode_instrs
        cur_entry = state.cur_entry
        cur_off = state.cur_off
        last_block = state.last_block
        budget = self.fetch_width
        while budget > 0 and rob_instrs + decode_instrs < rob_size:
            if cur_entry is None:
                if not ftq_entries:
                    break
                cur_entry = ftq.pop()
                cur_off = 0
            start, n_instrs, tidx, wp, cause, learn = cur_entry
            pc = start + cur_off * 4
            block = pc >> 6
            if block != last_block:
                discontinuity = block != last_block + 1
                ready = mem.demand_access(block, cycle)
                if prefetcher is not None:
                    prefetcher.on_fetch_block(block, cycle, last_block, discontinuity)
                    if ready > cycle:
                        prefetcher.on_demand_miss(block, cycle, last_block, discontinuity)
                last_block = block
                if ready > cycle:
                    state.fetch_ready = ready
                    if not wp:
                        state.stall_cls = (
                            col_entry[tidx] if cur_off == 0 and tidx >= 0 else SEQ
                        )
                        self.idle(state, cycle, 1)
                    break
            to_boundary = 16 - ((pc >> 2) & 15)
            take = n_instrs - cur_off
            if take > budget:
                take = budget
            if take > to_boundary:
                take = to_boundary
            cur_off += take
            budget -= take
            if cur_off >= n_instrs:
                decode_q.append(
                    (cycle + self.decode_latency, n_instrs, start, wp, cause)
                )
                decode_instrs += n_instrs
                if learn and not wp:
                    kind = self.col_kind[tidx]
                    if kind == IND_JUMP or kind == IND_CALL:
                        tgt = self.col_start[tidx + 1]  # the record's next pc
                    elif kind == RET:
                        tgt = 0
                    else:
                        row = self.row_by_slot[(start - self.code_base) >> 2]
                        tgt = self.cfg_target[row]
                    self.btb.insert(start, BTBEntry(n_instrs, kind, tgt))
                if cause != CAUSE_NONE:
                    state.squash_at = cycle + self.resolve_latency
                cur_entry = None
        state.cur_entry = cur_entry
        state.cur_off = cur_off
        state.last_block = last_block
        state.decode_instrs = decode_instrs

    def idle(self, state: PipelineState, cycle: int, n: int) -> None:
        """Charge ``n`` cycles like ``cycle`` to the stall class of a miss.

        ``tick`` charges through here too, so a bulk charge of skipped
        cycles is the same count as ticking each of them.
        """
        if state.dispatch_stall_until <= cycle < state.fetch_ready:
            cls = state.stall_cls
            if cls == SEQ:
                self.stall_seq += n
            elif cls == CONDK:
                self.stall_cond += n
            elif cls == UNCONDK:
                self.stall_uncond += n

    def counters(self) -> dict[str, int]:
        return {
            "stall_seq": self.stall_seq,
            "stall_cond": self.stall_cond,
            "stall_uncond": self.stall_uncond,
        }
