"""Cycle-level decoupled front-end engine.

This is the simulator behind every experiment: a trace-driven, cycle-by-
cycle model of the paper's core (Table I). The engine itself is thin —
it builds the hardware blocks, asks :mod:`repro.core.mechanisms` to
compose the mechanism's pipeline-stage list (:mod:`repro.core.stages`),
then runs that list over a shared :class:`~repro.core.stages.PipelineState`
once per cycle, in a fixed spine order every composition shares:

1. **fill arrivals** — completed L1-I fills install (prefetch buffer or
   L1-I); Confluence's variant predecodes arriving blocks into its BTB;
2. **squash** — a resolved mispredicted/missed branch flushes the FTQ,
   decode pipe and wrong-path ROB tail, restores the RAS and redirects the
   BPU (cause recorded: BTB miss vs. direction vs. target — Figure 7);
3. **retire** — up to commit-width instructions leave the ROB; retiring
   blocks feed temporal-stream prefetchers (PIF/SHIFT monitor the retire
   stream, which is why they lag on redirects — paper Section III-A);
4. **decode→ROB** — delivered groups enter the back end after the decode
   latency, subject to ROB occupancy;
5. **fetch** — up to fetch-width instructions drain from the FTQ head; a
   demand L1-I miss stalls fetch and is charged to the sequential /
   conditional / unconditional class of the block's entry edge (Figure 3);
6. **BPU** — one basic-block prediction per cycle; Boomerang's variant
   resolves detected BTB misses by stalling for a predecode fill, others
   degrade into a sequential run; wrong paths are really walked over the
   static CFG so wrong-path prefetches genuinely fill (or pollute) the
   prefetch buffer;
7. **prefetch issue** (optional) — one L1-I probe per cycle, honouring
   the priority mux: demand fetch > BTB miss probe > prefetch probe
   (paper Fig. 6).

**The gated loop.** Most cycles most stages have nothing to do: fetch is
parked on an L1-I miss, the BPU waits out a redirect bubble, no fill is
due. Rather than calling every ``tick`` every cycle, the loop tests a
*gate* per stage and calls ``tick`` only when the gate is open. The rule
that keeps this exact: **each gate mirrors the early-out guard at the
head of its tick**, so a gated-off tick is a no-op by that stage's own
code. A gate may open more often than needed (the tick then returns at
once), never less. Where an idle tick still counts something, its gate
stays open on those cycles: fetch charges its stall class while parked
on a miss, and the BPU counts wrong-path cycles and BTB-miss stall
cycles. Every cycle is still visited — nothing is skipped or accrued in
bulk — so the stats are those of ticking every stage every cycle.

The loop only ever calls ``stage.tick`` and only reads stage attributes
(``name``, ``rob_size``, ``_scan_mark``), so delegating wrappers such as
the profiler's timed stages see exactly the calls the loop makes.

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

            # 1. fill — the earliest scheduled arrival is due.
            if arrivals and arrivals[0][0] <= cycle:
                fill_tick(state, cycle)
            # 2. squash — the scheduled squash cycle arrived.
            if state.squash_at <= cycle:
                squash_tick(state, cycle)
            # 3. retire — a correct-path ROB head, or the warmup snapshot
            #    is due (its threshold is re-checked after retiring).
            if (rob and not rob[0][1]) or (
                state.warmup_snapshot is None and state.retired >= warmup_instrs
            ):
                retire_tick(state, cycle)
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
                if state.dispatch_stall_until <= cycle:
                    if state.fetch_ready > cycle:
                        if state.stall_cls != -1:
                            fetch_tick(state, cycle)  # charges the stall class
                    elif (state.cur_entry is not None or ftq_entries) and (
                        state.stall_cls != -1
                        or state.rob_instrs + state.decode_instrs < fetch_rob_size
                    ):
                        fetch_tick(state, cycle)
            # 6. BPU — every wrong-path cycle counts; otherwise the redirect
            #    bubble has passed and a miss probe is in flight, or there
            #    is trace left to predict and room in the FTQ.
            if state.wrong_path or (
                state.bpu_stall_until <= cycle
                and (
                    state.bmiss is not None
                    or (state.bpu_idx < n_records and len(ftq_entries) < ftq_depth)
                )
            ):
                bpu_tick(state, cycle)
            # 7. prefetch issue — new FTQ pushes to scan or probe traffic
            #    queued for the mux; or a stream block is probe-ready.
            if scan is not None:
                if (
                    ftq.pushed != scan._scan_mark
                    or state.throttle_q
                    or (state.bmiss is None and state.probe_pos < len(state.probe_q))
                ):
                    issue_tick(state, cycle)
            elif pf_queue and pf_queue[0][0] <= cycle:
                issue_tick(state, cycle)

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

        final = collect(cycle)
        base = state.warmup_snapshot or {k: 0 for k in final}
        stats = {k: final[k] - base.get(k, 0) for k in final}
        stats["warmup_instrs"] = float(base.get("retired_instrs", 0))
        stats["warmup_cycles"] = float(base.get("cycles", 0))
        stats["total_cycles"] = float(cycle)
        stats["llc_round_trip"] = float(mem.llc_round_trip)
        return stats
