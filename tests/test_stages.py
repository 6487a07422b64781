"""Tests for the pipeline-stage subsystem.

Three layers:

* direct ``tick()`` unit tests of individual stage objects over a
  hand-built :class:`PipelineState` (SquashUnit's flush/restore/cause
  classification, the prefetch-issue priority mux);
* composition tests — each mechanism assembles exactly the stage list the
  architecture table promises;
* the golden-equivalence harness — the composed engine's full stats dict
  is bit-identical to the recorded pre-refactor (monolithic-loop) output
  for every mechanism on the quick workload set.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque

import pytest

from invariants import counter_collisions
from repro import Simulator, load_workload, make_config
from repro.branch.ras import ReturnAddressStack
from repro.core import MECHANISMS
from repro.core.stages import (
    CAUSE_BTB,
    CAUSE_COND,
    CAUSE_TARGET,
    FTQScanPrefetchIssue,
    PipelineState,
    SquashUnit,
    StageContext,
    StreamPrefetchIssue,
)
from repro.core.stages.state import SQUASH_NEVER
from repro.frontend.ftq import FetchTargetQueue

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_quick.json"


class RecordingMem:
    """Memory stub recording the probe stream the prefetch mux issues."""

    def __init__(self):
        self.probes: list[tuple[int, int]] = []

    def prefetch_probe(self, block, cycle):
        self.probes.append((block, cycle))


def _squash_ctx(ras_entries=8, ftq_depth=8):
    return StageContext(
        config=make_config("none"),
        ras=ReturnAddressStack(ras_entries),
        ftq=FetchTargetQueue(ftq_depth),
    )


class TestSquashUnit:
    def _armed_state(self, cause, squash_at=5):
        state = PipelineState()
        state.squash_at = squash_at
        state.div_cause = cause
        state.div_resume_idx = 17
        state.wrong_path = True
        return state

    def test_no_fire_before_scheduled_cycle(self):
        ctx = _squash_ctx()
        unit = SquashUnit(ctx)
        state = self._armed_state(CAUSE_COND, squash_at=5)
        unit.tick(state, 4)
        assert state.squash_at == 5 and state.wrong_path
        assert unit.squash_cond == 0

    @pytest.mark.parametrize(
        "cause,counter",
        [
            (CAUSE_BTB, "squash_btb"),
            (CAUSE_COND, "squash_cond"),
            (CAUSE_TARGET, "squash_target"),
        ],
    )
    def test_cause_classification(self, cause, counter):
        ctx = _squash_ctx()
        unit = SquashUnit(ctx)
        state = self._armed_state(cause)
        unit.tick(state, 5)
        assert unit.counters()[counter] == 1
        assert sum(unit.counters().values()) == 1

    def test_ras_restored_to_divergence_snapshot(self):
        ctx = _squash_ctx()
        unit = SquashUnit(ctx)
        ras = ctx.ras
        ras.push(0x100)
        ras.push(0x200)
        state = self._armed_state(CAUSE_TARGET)
        state.ras_snapshot = ras.snapshot()
        # Wrong-path speculation perturbs the RAS after the snapshot.
        ras.pop()
        ras.push(0xBAD)
        ras.push(0xBAD2)
        unit.tick(state, 5)
        assert ras.snapshot() == (0x100, 0x200)
        assert state.ras_snapshot is None

    def test_flushes_younger_work_and_redirects(self):
        ctx = _squash_ctx()
        unit = SquashUnit(ctx)
        ctx.ftq.push((0, 1, 0, False, 0, False))
        state = self._armed_state(CAUSE_COND)
        state.decode_q = deque(
            [(9, 4, 0x40, False, 0), (9, 6, 0x80, True, 0), (9, 2, 0xC0, True, 0)]
        )
        state.decode_instrs = 12
        state.rob = deque([[4, False, 0x0, 4], [3, True, 0x40, 3]])
        state.rob_instrs = 7
        state.cur_entry = (0x40, 4, 1, False, 0, False)
        state.probe_q = [1, 2, 3]
        state.probe_pos = 1
        state.throttle_q = deque([7, 8])
        unit.tick(state, 5)
        # Wrong-path decode groups and the wrong-path ROB tail are gone.
        assert [g[1] for g in state.decode_q] == [4]
        assert state.decode_instrs == 4
        assert list(state.rob) == [[4, False, 0x0, 4]]
        assert state.rob_instrs == 4
        # Fetch cursor and prefetch queues reset; BPU rewound + bubbled.
        assert state.cur_entry is None and ctx.ftq.empty
        assert state.probe_q == [] and state.probe_pos == 0
        assert not state.throttle_q
        assert not state.wrong_path
        assert state.bpu_idx == 17
        assert state.squash_at == SQUASH_NEVER
        assert state.bpu_stall_until == 5 + ctx.config.core.redirect_bubble


class TestPrefetchIssueMux:
    def _stage(self, ftq_depth=8):
        mem = RecordingMem()
        ftq = FetchTargetQueue(ftq_depth)
        ctx = StageContext(mem=mem, ftq=ftq)
        return FTQScanPrefetchIssue(ctx), mem, ftq

    def test_scans_new_ftq_entry_into_probe_queue(self):
        stage, mem, ftq = self._stage()
        state = PipelineState()
        # One basic block spanning cache blocks 2..3 (64B each, 4B instrs).
        ftq.push((0x80, 20, 0, False, 0, False))
        stage.tick(state, 1)
        assert state.probe_q == [2, 3]
        assert mem.probes == [(2, 1)]  # one probe per cycle
        stage.tick(state, 2)
        assert mem.probes == [(2, 1), (3, 2)]

    def test_recent_window_dedups_reprobes(self):
        stage, mem, ftq = self._stage()
        state = PipelineState()
        ftq.push((0x80, 4, 0, False, 0, False))
        stage.tick(state, 1)
        ftq.push((0x80, 4, 0, False, 0, False))
        stage.tick(state, 2)
        assert state.probe_q == [2]  # second push adds nothing

    def test_btb_miss_probe_preempts_prefetch_probes(self):
        """Priority mux: an in-flight BTB miss probe owns the L1-I port."""
        stage, mem, ftq = self._stage()
        state = PipelineState()
        ftq.push((0x80, 4, 0, False, 0, False))
        state.bmiss = [0x80, 2, 10, 0]
        stage.tick(state, 1)
        assert mem.probes == []  # port carries the miss probe, not prefetch
        assert state.probe_q == [2]  # but the scan still happened
        state.bmiss = None
        stage.tick(state, 2)
        assert mem.probes == [(2, 2)]

    def test_throttle_blocks_preempt_probe_queue(self):
        """Boomerang's miss-triggered next-line throttle goes out first."""
        stage, mem, ftq = self._stage()
        state = PipelineState()
        ftq.push((0x80, 4, 0, False, 0, False))
        state.throttle_q = deque([40, 41])
        stage.tick(state, 1)
        stage.tick(state, 2)
        stage.tick(state, 3)
        assert mem.probes == [(40, 1), (41, 2), (2, 3)]

    def test_stream_variant_issues_prefetcher_blocks(self):
        class FakePrefetcher:
            def __init__(self):
                self.blocks = deque([11, None, 12])

            def next_prefetch(self, cycle):
                return self.blocks.popleft() if self.blocks else None

        mem = RecordingMem()
        stage = StreamPrefetchIssue(StageContext(mem=mem, prefetcher=FakePrefetcher()))
        state = PipelineState()
        for cycle in (1, 2, 3):
            stage.tick(state, cycle)
        assert mem.probes == [(11, 1), (12, 3)]


class TestStageComposition:
    def _engine(self, mechanism, **overrides):
        wl = load_workload("streaming", scale=0.05)
        from repro.core.engine import FrontEndEngine

        return FrontEndEngine(wl, make_config(mechanism, **overrides))

    def _names(self, mechanism, **overrides):
        return [type(s).__name__ for s in self._engine(mechanism, **overrides).stages]

    def test_shared_spine_everywhere(self):
        for mech in MECHANISMS:
            names = self._names(mech)
            assert names[1:5] == [
                "SquashUnit",
                "RetireUnit",
                "DecodeDispatch",
                "FetchUnit",
            ], mech

    def test_boomerang_is_missprobe_bpu_plus_ftq_scan(self):
        names = self._names("boomerang")
        assert "MissProbeBPU" in names and "FTQScanPrefetchIssue" in names

    def test_fdip_is_plain_bpu_plus_ftq_scan(self):
        names = self._names("fdip")
        assert "BPUStage" in names and "FTQScanPrefetchIssue" in names
        assert "MissProbeBPU" not in names

    def test_confluence_predecodes_on_fill(self):
        assert self._names("confluence")[0] == "PredecodeFillArrival"
        # Nothing to prefill under a perfect BTB: plain fill is composed.
        assert self._names("confluence", perfect_btb=True)[0] == "FillArrival"

    def test_none_has_idle_probe_port(self):
        names = self._names("none")
        assert "StreamPrefetchIssue" not in names
        assert "FTQScanPrefetchIssue" not in names

    def test_stream_mechanisms_compose_stream_issue(self):
        for mech in ("next_line", "dip", "pif", "shift", "confluence"):
            assert "StreamPrefetchIssue" in self._names(mech), mech

    def test_counter_namespaces_are_disjoint(self):
        """``aggregate_stage_counters`` merges with ``dict.update``: a key
        written twice (by two stages, or by a stage and the shared blocks)
        would silently drop one count from the results."""
        for mech in MECHANISMS:
            engine = self._engine(mech)
            assert counter_collisions(engine.stages, engine) == [], mech


class TestGoldenEquivalence:
    """The composed engine reproduces the monolithic engine bit-for-bit.

    ``tests/data/golden_quick.json`` holds the full stats dict of the
    pre-refactor engine for all 8 mechanisms on every workload at the
    quick experiment scale. Any counter drift — one mispredicted branch,
    one extra probe — fails loudly here.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    @pytest.mark.parametrize(
        "workload", ["nutch", "streaming", "apache", "zeus", "oracle", "db2"]
    )
    def test_bit_identical_to_seed_engine(self, golden, workload):
        wl = load_workload(workload, scale=golden["workload_scale"])
        for mechanism in MECHANISMS:
            raw = Simulator(wl, make_config(mechanism)).run().raw
            want = golden["stats"][f"{workload}:{mechanism}"]
            assert raw == want, f"{workload}:{mechanism} diverged from seed engine"
