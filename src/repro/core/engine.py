"""Cycle-level decoupled front-end engine.

This is the simulator behind every experiment: a trace-driven, cycle-by-
cycle model of the paper's core (Table I). The engine itself is thin —
it builds the hardware blocks, asks :mod:`repro.core.mechanisms` to
compose the mechanism's pipeline-stage list (:mod:`repro.core.stages`),
then runs that list over a shared :class:`~repro.core.stages.PipelineState`
once per cycle, in a fixed spine order every composition shares: fill
arrivals, squash, retire, decode→ROB, fetch and the BPU, then optionally
prefetch issue (the L1-I probe mux of paper Fig. 6). Each stage's module
documents what it models.

**The gated loop.** Most cycles most stages have nothing to do: fetch is
parked on an L1-I miss, the BPU waits out a redirect bubble, no fill is
due. The loop tests a *gate* per stage and calls ``tick`` only when it is
open, and jumps over runs of cycles on which nothing can move. Two rules
keep the stats those of ticking every stage every cycle:

1. **Each gate mirrors the early-out guard at the head of its tick**, so
   a gated-off tick is a no-op by that stage's own code. A gate may open
   more often than needed (the tick then returns at once), never less.
2. **Each ``idle`` mirrors its tick's idle counting.** On some cycles a
   tick only counts: fetch charges its stall class while parked on a
   miss, the BPU counts wrong-path and BTB-miss stall cycles. After a
   cycle on which no stage did more, the state is frozen until the next
   *wake* time, the earliest still ahead of: the first fill arrival, the
   scheduled squash, the dispatch data stall, the decode-queue head,
   ``fetch_ready``, ``bpu_stall_until``, the miss probe's ready cycle,
   the stream prefetcher's queue head, and the cycle cap plus one (so a
   livelock raises at the same cycle). The loop jumps there and calls
   ``idle(state, cycle, n)`` on the fetch unit and the BPU, which accrue
   the ``n`` skipped cycles in bulk.

The loop only calls ``stage.tick`` and ``stage.idle`` and only reads
stage attributes (``name``, ``rob_size``, ``_scan_mark``), so delegating
wrappers such as the profiler's timed stages see exactly its calls. It
records the cycles it visited, outside the stats, as ``visited_cycles``.

All bookkeeping that remains here is run-scoped: the warmup/measured-region
split, the cycle cap and the end-of-trace drain. Per-stage counters flatten
into the flat stats dict via :func:`repro.core.results.aggregate_stage_counters`.
"""

from __future__ import annotations

from typing import Any

from ..branch.btb import BasicBlockBTB, BTBPrefetchBuffer
from ..branch.predictors import make_predictor
from ..branch.ras import ReturnAddressStack
from ..config import SimConfig
from ..errors import SimulationError
from ..frontend.ftq import FetchTargetQueue
from ..memory.hierarchy import InstructionMemory
from ..workloads.workload import Workload
from .mechanisms import build_prefetcher, compose_stages, traits_for
from .results import aggregate_stage_counters
from .stages import (
    CAUSE_BTB,
    CAUSE_COND,
    CAUSE_NONE,
    CAUSE_TARGET,
    PipelineState,
    StageContext,
)

__all__ = [
    "CAUSE_BTB",
    "CAUSE_COND",
    "CAUSE_NONE",
    "CAUSE_TARGET",
    "FrontEndEngine",
]

#: Hard per-run cycle budget (multiples of trace instructions).
_CYCLE_CAP_FACTOR = 400

#: Stage-name roots of the spine every composition shares, in tick order.
_SPINE = ("fill", "squash", "retire", "decode", "fetch", "bpu")


def _name_root(stage: object) -> str:
    """``fill+predecode`` → ``fill``, ``prefetch:stream`` → ``prefetch``."""
    return getattr(stage, "name", "").split("+")[0].split(":")[0]


class FrontEndEngine:
    """One simulated core front-end + simplified back-end."""

    def __init__(self, workload: Workload, config: SimConfig):
        self.workload = workload
        self.config = config
        self.traits = traits_for(config.mechanism)
        #: Cycles the last :meth:`run` visited (the rest were skipped idle).
        self.visited_cycles = 0

        self.mem = InstructionMemory(config.memory, perfect=config.perfect_l1i)
        self.btb = BasicBlockBTB(config.btb)
        self.btb_pf_buffer = BTBPrefetchBuffer(
            config.prefetch.btb_prefetch_buffer_entries
        )
        self.predictor = make_predictor(config.predictor)
        self.ras = ReturnAddressStack(config.core.ras_entries)
        self.ftq = FetchTargetQueue(config.core.ftq_depth)
        self.prefetcher = build_prefetcher(config, self.mem.llc_round_trip)

        self.stages = compose_stages(
            StageContext(
                workload=workload,
                config=config,
                mem=self.mem,
                btb=self.btb,
                btb_buf=self.btb_pf_buffer,
                predictor=self.predictor,
                ras=self.ras,
                ftq=self.ftq,
                prefetcher=self.prefetcher,
            )
        )

    # ------------------------------------------------------------------ run

    def run(self, max_instructions: int | None = None) -> dict[str, float]:
        """Simulate the workload's trace; returns the measured-region stats."""
        wl = self.workload
        n_records = len(wl.trace)
        total_instrs = wl.trace.n_instrs
        if max_instructions is not None:
            total_instrs = min(total_instrs, max_instructions)
        warmup_instrs = min(wl.warmup_instrs, total_instrs // 2)

        stages = self.stages
        mem = self.mem
        ftq = self.ftq

        roots = [_name_root(stage) for stage in stages]
        if tuple(roots[:6]) != _SPINE or roots[6:] not in ([], ["prefetch"]):
            raise SimulationError(
                f"stage composition {roots} of {self.config.mechanism!r} does "
                f"not follow the engine spine {list(_SPINE)} + optional prefetch"
            )
        fill_tick, squash_tick, retire_tick, decode_tick, fetch_tick, bpu_tick = (
            stage.tick for stage in stages[:6]
        )
        fetch_idle, bpu_idle = stages[4].idle, stages[5].idle
        decode_rob_size = stages[3].rob_size
        fetch_rob_size = stages[4].rob_size
        # The optional seventh stage: an FTQ-scan engine (it keeps a
        # watermark against ftq.pushed) or a stream prefetcher's probe port.
        issue_tick: Any = None
        scan: Any = None
        pf_queue: Any = None
        if len(stages) == 7:
            issue_tick = stages[6].tick
            if hasattr(stages[6], "_scan_mark"):
                scan = stages[6]
            elif self.prefetcher is not None:
                pf_queue = self.prefetcher._queue

        def collect(cycle: int) -> dict[str, float]:
            return aggregate_stage_counters(
                cycle, state.retired, stages, self.btb, self.btb_pf_buffer, ftq, mem
            )

        state = PipelineState(warmup_instrs=warmup_instrs, collect_counters=collect)

        cycle = 0
        skipped_total = 0
        cycle_cap = _CYCLE_CAP_FACTOR * max(total_instrs, 1)

        # Loop-stable containers: stages mutate them in place (the squash
        # flush uses clear()/pop()), never rebind them.
        arrivals = mem._arrivals
        ftq_entries = ftq.entries
        ftq_depth = ftq.depth
        rob = state.rob

        while state.retired < total_instrs:
            cycle += 1
            if cycle > cycle_cap:
                raise SimulationError(
                    f"cycle cap exceeded ({cycle} cycles, {state.retired}/"
                    f"{total_instrs} instructions) — engine livelock for "
                    f"{self.config.mechanism}"
                )
            # Set by every tick that can change state beyond idle counters.
            busy = False

            # 1. fill — the earliest scheduled arrival is due.
            if arrivals and arrivals[0][0] <= cycle:
                fill_tick(state, cycle)
                busy = True
            # 2. squash — the scheduled squash cycle arrived.
            if state.squash_at <= cycle:
                squash_tick(state, cycle)
                busy = True
            # 3. retire — a correct-path ROB head, or the warmup snapshot
            #    is due (its threshold is re-checked after retiring).
            if (rob and not rob[0][1]) or (
                state.warmup_snapshot is None and state.retired >= warmup_instrs
            ):
                retire_tick(state, cycle)
                busy = True
            # 4+5. decode, then fetch; both wait out the dispatch data
            #      stall, re-read after decode (which may arm a new one).
            if state.dispatch_stall_until <= cycle:
                decode_q = state.decode_q
                if (
                    decode_q
                    and decode_q[0][0] <= cycle
                    and state.rob_instrs + decode_q[0][1] <= decode_rob_size
                ):
                    decode_tick(state, cycle)
                    busy = True
                if state.dispatch_stall_until <= cycle:
                    if state.fetch_ready > cycle:
                        if state.stall_cls != -1:
                            fetch_tick(state, cycle)  # charges the stall class
                    elif (state.cur_entry is not None or ftq_entries) and (
                        state.stall_cls != -1
                        or state.rob_instrs + state.decode_instrs < fetch_rob_size
                    ):
                        fetch_tick(state, cycle)
                        busy = True
            # 6. BPU — past the redirect bubble, a due miss probe advances or,
            #    with FTQ room, a path is predicted; else it may only count.
            bmiss = state.bmiss
            if state.bpu_stall_until <= cycle and (
                bmiss[2] <= cycle
                if bmiss is not None
                else len(ftq_entries) < ftq_depth
                and (state.wrong_path or state.bpu_idx < n_records)
            ):
                bpu_tick(state, cycle)
                busy = True
            elif state.wrong_path or (
                bmiss is not None and state.bpu_stall_until <= cycle
            ):
                bpu_tick(state, cycle)  # counts idle cycles only
            # 7. prefetch issue — new FTQ pushes to scan or probe traffic
            #    queued for the mux; or a stream block is probe-ready.
            if scan is not None:
                if (
                    ftq.pushed != scan._scan_mark
                    or state.throttle_q
                    or (state.bmiss is None and state.probe_pos < len(state.probe_q))
                ):
                    issue_tick(state, cycle)
                    busy = True
            elif pf_queue and pf_queue[0][0] <= cycle:
                issue_tick(state, cycle)
                busy = True

            # End-of-trace drain: if the BPU has consumed the whole trace and
            # everything younger has drained, stop (counts remaining retire).
            if (
                state.bpu_idx >= n_records
                and not state.wrong_path
                and not ftq_entries
                and state.cur_entry is None
                and not state.decode_q
                and not rob
            ):
                break

            if busy:
                continue
            # Idle cycle: nothing changes until the next time a gate's
            # comparison flips. Jump there, accruing the idle counts.
            wake = cycle_cap + 1
            for t in (
                state.squash_at, state.dispatch_stall_until, state.fetch_ready,
                state.bpu_stall_until, arrivals[0][0] if arrivals else 0,
                state.decode_q[0][0] if state.decode_q else 0,
                bmiss[2] if bmiss is not None else 0, pf_queue[0][0] if pf_queue else 0,
            ):
                if cycle < t < wake:
                    wake = t
            skipped = wake - cycle - 1
            if skipped:
                bpu_idle(state, cycle + 1, skipped)
                fetch_idle(state, cycle + 1, skipped)
                cycle += skipped
                skipped_total += skipped

        self.visited_cycles = cycle - skipped_total
        final = collect(cycle)
        base = state.warmup_snapshot or {k: 0 for k in final}
        stats = {k: final[k] - base.get(k, 0) for k in final}
        stats["warmup_instrs"] = float(base.get("retired_instrs", 0))
        stats["warmup_cycles"] = float(base.get("cycles", 0))
        stats["total_cycles"] = float(cycle)
        stats["llc_round_trip"] = float(mem.llc_round_trip)
        return stats
