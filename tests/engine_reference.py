"""The tick-every-stage reference loop the gated engine is checked against.

:meth:`repro.core.engine.FrontEndEngine.run` calls a stage's ``tick`` only
on cycles its gate opens, each gate mirroring the early-out guard at the
head of that tick. :func:`reference_run` is the plain loop that calls
every tick on every cycle; the gated loop is correct exactly when the two
agree, bit for bit, on every stats counter. It lives under ``tests/`` so
that ``src/`` keeps one engine path.

Consumers: ``tests/test_engine_reference.py`` (generated profiles and
configs, instruction cap) and ``tests/test_batch.py`` (the paper
workloads x all 8 mechanisms, knob variants).
"""

from __future__ import annotations

from repro.core import profiling
from repro.core.engine import _CYCLE_CAP_FACTOR, FrontEndEngine
from repro.core.results import aggregate_stage_counters
from repro.core.stages import PipelineState
from repro.errors import SimulationError


def reference_run(engine: FrontEndEngine, max_instructions: int | None = None) -> dict:
    """Run ``engine`` ticking every stage every cycle (the oracle loop)."""
    wl = engine.workload
    n_records = len(wl.trace)
    total_instrs = wl.trace.n_instrs
    if max_instructions is not None:
        total_instrs = min(total_instrs, max_instructions)
    stages, ftq, mem = engine.stages, engine.ftq, engine.mem

    def collect(cycle: int) -> dict:
        return aggregate_stage_counters(
            cycle, state.retired, stages, engine.btb, engine.btb_pf_buffer, ftq, mem
        )

    state = PipelineState(
        warmup_instrs=min(wl.warmup_instrs, total_instrs // 2),
        collect_counters=collect,
    )
    cycle = 0
    cycle_cap = _CYCLE_CAP_FACTOR * max(total_instrs, 1)
    while state.retired < total_instrs:
        cycle += 1
        if cycle > cycle_cap:
            raise SimulationError(f"cycle cap exceeded ({cycle} cycles)")
        for stage in stages:
            stage.tick(state, cycle)
        if (
            state.bpu_idx >= n_records
            and not state.wrong_path
            and ftq.empty
            and state.cur_entry is None
            and not state.decode_q
            and not state.rob
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


def timed_engine(workload, config) -> FrontEndEngine:
    """An engine whose every stage is wrapped in the profiler's proxy."""
    engine = FrontEndEngine(workload, config)
    profiler = profiling.StageProfiler()
    engine.stages = [profiling._TimedStage(s, profiler) for s in engine.stages]
    return engine


def assert_invariants(workload, raw: dict) -> None:
    """Properties every completed run satisfies, whatever the config."""
    assert raw["retired_instrs"] + raw["warmup_instrs"] == workload.trace.n_instrs
    squashes = raw["squash_btb"] + raw["squash_cond"] + raw["squash_target"]
    assert squashes == raw["ftq_flushes"]  # only a squash flushes the FTQ
    assert raw["cycles"] + raw["warmup_cycles"] == raw["total_cycles"]
    assert raw["stall_seq"] + raw["stall_cond"] + raw["stall_uncond"] <= raw["cycles"]
    assert raw["wp_cycles"] <= raw["cycles"]


def check_equivalent(workload, config) -> dict:
    """Gated == reference, and gated under timing proxies == reference."""
    want = reference_run(FrontEndEngine(workload, config))
    got = FrontEndEngine(workload, config).run()
    assert got == want, f"{config.mechanism}: gated loop diverged from reference"
    assert timed_engine(workload, config).run() == want
    assert_invariants(workload, got)
    return got
