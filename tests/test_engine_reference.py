"""Differential tests: the gated engine against a tick-every-stage oracle.

The oracle is :func:`engine_reference.reference_run`, the plain loop that
calls every tick on every cycle (see ``tests/engine_reference.py``). The
paper workloads x all 8 mechanisms and the knob variants are compared in
``tests/test_batch.py``; this module covers the rest:

* generated workload profiles and knob configs (``hypothesis``), seeded
  with control-flow shapes that stress the gates: dense indirect
  dispatch with high target fan-out, landing-pad-dense code with many
  short blocks, dispatcher loops;
* the instruction cap and a composition off the engine spine;
* the idle-run skip: generated configs draw every latency that sets a
  wake time (down to 1 cycle), and the skip must actually engage;
* engine invariants that hold for every run: every trace instruction
  retires, squash causes partition the squashes, the cycle split adds up.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from engine_reference import check_equivalent, reference_run
from repro.core import MECHANISMS
from repro.core.engine import FrontEndEngine
from repro.core.mechanisms import make_config
from repro.errors import SimulationError
from repro.workloads import load_workload
from repro.workloads.profiles import WorkloadProfile

SCALE = 0.06

#: Dynamic trace length of a generated workload.
FUZZ_INSTRS = 4000


# ---------------------------------------------------------------------------
# Paper workloads: instruction cap, composition
# ---------------------------------------------------------------------------


class TestEngineRun:
    def test_instruction_cap_bit_identical(self):
        wl = load_workload("oracle", scale=SCALE)
        config = make_config("boomerang")
        cap = wl.trace.n_instrs // 3
        want = reference_run(FrontEndEngine(wl, config), max_instructions=cap)
        assert FrontEndEngine(wl, config).run(max_instructions=cap) == want

    def test_idle_runs_are_skipped(self):
        """A long LLC round trip parks the coupled front end for tens of
        cycles at a time: the loop jumps those runs instead of visiting them."""
        wl = load_workload("oracle", scale=SCALE)
        engine = FrontEndEngine(wl, make_config("none").with_llc_latency(70))
        raw = engine.run()
        assert 0 < engine.visited_cycles < raw["total_cycles"]

    def test_unknown_composition_refused(self):
        wl = load_workload("apache", scale=SCALE)
        engine = FrontEndEngine(wl, make_config("fdip"))
        engine.stages = engine.stages[:5]  # no BPU: not the engine spine
        with pytest.raises(SimulationError, match="spine"):
            engine.run()


# ---------------------------------------------------------------------------
# Generated profiles and configs
# ---------------------------------------------------------------------------


def _profile(**fields) -> WorkloadProfile:
    base = dict(
        name="fuzz",
        description="generated",
        code_kb=32,
        n_transaction_types=8,
        layers=4,
        call_fanout=3,
        indirect_call_frac=0.1,
        indirect_fanout=4,
        avg_bb_instrs=6.0,
        frac_cond=0.55,
        frac_call=0.25,
        frac_jump=0.2,
        default_trace_instrs=FUZZ_INSTRS,
    )
    base.update(fields)
    return WorkloadProfile(**base)


#: Control-flow shapes from the CFI literature (PAPERS.md), as fixed
#: examples the generator always tries.
CFI_SHAPES = {
    # Indirect calls through wide dispatch tables (CCFI/FIPAC-style
    # high target fan-out): BTB target mispredicts on every other call.
    "indirect-fanout": _profile(
        indirect_call_frac=0.85, indirect_fanout=48, indirect_jump_frac=0.6
    ),
    # Landing-pad-dense code: tiny blocks, many static branches per KB.
    "landing-pads": _profile(code_kb=96, avg_bb_instrs=2.0, frac_cond=0.4, frac_jump=0.4),
    # Dispatcher-gadget loops (Block Oriented Programming): a hot loop
    # around one indirect jump with many targets.
    "dispatcher": _profile(
        n_transaction_types=1, layers=2, loop_frac=0.6, loop_mean_trip=30.0,
        indirect_jump_frac=1.0, indirect_fanout=64, avg_fn_instrs=40,
    ),
}


@st.composite
def profiles(draw) -> WorkloadProfile:
    cond = draw(st.floats(0.1, 0.8))
    call = draw(st.floats(0.05, 0.5))
    jump = draw(st.floats(0.05, 0.5))
    return _profile(
        code_kb=draw(st.integers(16, 128)),
        n_transaction_types=draw(st.integers(1, 32)),
        layers=draw(st.integers(2, 6)),
        call_fanout=draw(st.integers(1, 8)),
        indirect_call_frac=draw(st.floats(0.0, 0.9)),
        indirect_fanout=draw(st.integers(1, 64)),
        avg_bb_instrs=draw(st.floats(2.0, 12.0)),
        frac_cond=cond,
        frac_call=call,
        frac_jump=jump,
        indirect_jump_frac=draw(st.floats(0.0, 1.0)),
        loop_frac=draw(st.floats(0.0, 0.6)),
        loop_mean_trip=draw(st.floats(1.0, 40.0)),
        avg_fn_instrs=draw(st.integers(20, 400)),
        seed=draw(st.integers(1, 10_000)),
        warmup_frac=draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])),
    )


@st.composite
def configs(draw):
    mech = draw(st.sampled_from(MECHANISMS))
    config = make_config(mech, perfect_btb=draw(st.booleans()),
                         perfect_l1i=draw(st.booleans()))
    # Every latency below sets a wake time of the idle-run skip.
    core = replace(
        config.core,
        ftq_depth=draw(st.sampled_from([1, 2, 4, 8, 32, 64])),
        rob_size=draw(st.sampled_from([32, 48, 64, 128, 256])),
        decode_latency=draw(st.integers(1, 8)),
        resolve_latency=draw(st.integers(1, 30)),
        redirect_bubble=draw(st.integers(1, 6)),
        data_stall_cycles=draw(st.integers(1, 60)),
        predecode_latency=draw(st.integers(1, 8)),
    )
    prefetch = replace(config.prefetch, throttle_blocks=draw(st.integers(0, 8)))
    config = replace(config, core=core, prefetch=prefetch)
    config = config.with_btb_entries(draw(st.sampled_from([64, 256, 1024, 2048, 8192])))
    config = config.with_llc_latency(draw(st.integers(1, 80)))
    return config.with_predictor(
        draw(st.sampled_from(["tage", "bimodal", "oracle", "never_taken"]))
    )


#: The coupled baseline waiting out LLC fills behind one-cycle redirects.
LONG_LLC_SHORT_BUBBLE = replace(
    make_config("none"), core=replace(make_config("none").core, redirect_bubble=1)
).with_llc_latency(80)


class TestGenerated:
    @given(profile=profiles(), config=configs())
    @example(profile=_profile(), config=LONG_LLC_SHORT_BUBBLE)
    @example(profile=CFI_SHAPES["indirect-fanout"], config=make_config("boomerang"))
    @example(profile=CFI_SHAPES["landing-pads"], config=make_config("confluence"))
    @example(profile=CFI_SHAPES["dispatcher"], config=make_config("fdip").with_llc_latency(70))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        # A failure prints a @reproduce_failure line to paste in as a fixture.
        print_blob=True,
    )
    def test_gated_equals_reference(self, profile, config):
        check_equivalent(load_workload(profile), config)

    @pytest.mark.parametrize("shape", sorted(CFI_SHAPES))
    def test_cfi_shapes_all_mechanisms(self, shape):
        wl = load_workload(CFI_SHAPES[shape])
        for mech in MECHANISMS:
            check_equivalent(wl, make_config(mech))
