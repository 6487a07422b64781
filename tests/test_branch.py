"""Tests for the branch substrate: BTBs, RAS, direction predictors."""

import pytest

from repro.config import BTBParams, PredictorParams
from repro.branch.btb import BasicBlockBTB, BTBEntry, BTBPrefetchBuffer
from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    NeverTakenPredictor,
    OraclePredictor,
    TagePredictor,
    make_predictor,
)
from repro.branch.ras import ReturnAddressStack
from repro.errors import ConfigError
from repro.workloads.isa import BranchKind


def entry(n=4, kind=BranchKind.COND, target=0x2000) -> BTBEntry:
    return BTBEntry(n_instrs=n, kind=int(kind), target=target)


class TestBasicBlockBTB:
    def test_miss_is_none(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        assert btb.lookup(0x1000) is None

    def test_insert_then_hit(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        btb.insert(0x1000, entry())
        got = btb.lookup(0x1000)
        assert got is not None
        assert got.target == 0x2000

    def test_lru_within_set(self):
        btb = BasicBlockBTB(BTBParams(entries=2, assoc=2))
        btb.insert(0x0, entry())
        btb.insert(0x4, entry())
        btb.lookup(0x0)
        victim = btb.insert(0x8, entry())
        assert victim == 0x4

    def test_update_target(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        btb.insert(0x1000, entry(target=0x2000))
        assert btb.update_target(0x1000, 0x3000)
        assert btb.lookup(0x1000).target == 0x3000

    def test_update_target_missing(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        assert not btb.update_target(0x1000, 0x3000)

    def test_hit_rate_counters(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        btb.lookup(0x100)
        btb.insert(0x100, entry())
        btb.lookup(0x100)
        assert btb.lookups == 2
        assert btb.hits == 1

    def test_occupancy_bounded(self):
        btb = BasicBlockBTB(BTBParams(entries=16, assoc=4))
        for i in range(100):
            btb.insert(i * 4, entry())
        assert btb.occupancy() <= 16

    def test_reinsert_does_not_evict(self):
        btb = BasicBlockBTB(BTBParams(entries=2, assoc=2))
        btb.insert(0x0, entry())
        btb.insert(0x4, entry())
        assert btb.insert(0x0, entry(target=0x44)) is None
        assert btb.lookup(0x0).target == 0x44

    def test_contains_no_side_effects(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        btb.insert(0x40, entry())
        before = btb.lookups
        assert btb.contains(0x40)
        assert btb.lookups == before

    def test_reset(self):
        btb = BasicBlockBTB(BTBParams(entries=64, assoc=4))
        btb.insert(0x40, entry())
        btb.reset()
        assert btb.occupancy() == 0 and btb.inserts == 0


class TestBTBPrefetchBuffer:
    def test_take_removes(self):
        buf = BTBPrefetchBuffer(4)
        buf.insert(0x10, entry())
        assert buf.take(0x10) is not None
        assert buf.take(0x10) is None

    def test_fifo_eviction(self):
        buf = BTBPrefetchBuffer(2)
        buf.insert(0x10, entry())
        buf.insert(0x20, entry())
        buf.insert(0x30, entry())
        assert 0x10 not in buf
        assert buf.evictions == 1

    def test_hit_counter(self):
        buf = BTBPrefetchBuffer(2)
        buf.insert(0x10, entry())
        buf.take(0x10)
        buf.take(0x99)
        assert buf.hits == 1

    def test_update_existing(self):
        buf = BTBPrefetchBuffer(2)
        buf.insert(0x10, entry(target=1))
        buf.insert(0x10, entry(target=2))
        assert len(buf) == 1
        assert buf.take(0x10).target == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BTBPrefetchBuffer(0)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(8)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None
        assert ras.overflows == 1

    def test_snapshot_restore(self):
        ras = ReturnAddressStack(8)
        ras.push(1)
        snap = ras.snapshot()
        ras.push(2)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 1

    def test_peek_does_not_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(9)
        assert ras.peek() == 9
        assert len(ras) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)


class TestStaticPredictors:
    def test_never_taken(self):
        p = NeverTakenPredictor()
        assert p.predict(0x100) is False
        p.update(0x100, True)
        assert p.predict(0x100) is False
        assert p.storage_bits() == 0

    def test_always_taken(self):
        p = AlwaysTakenPredictor()
        assert p.predict(0x100) is True

    def test_oracle_follows_staged_outcome(self):
        p = OraclePredictor()
        p.stage(True)
        assert p.predict(0x1) is True
        p.stage(False)
        assert p.predict(0x1) is False


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor(entries=64)
        for _ in range(4):
            p.update(0x100, True)
        assert p.predict(0x100) is True

    def test_hysteresis(self):
        p = BimodalPredictor(entries=64)
        for _ in range(4):
            p.update(0x100, True)
        p.update(0x100, False)  # one blip should not flip a saturated counter
        assert p.predict(0x100) is True

    def test_storage_bits(self):
        assert BimodalPredictor(entries=4096).storage_bits() == 8192

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)

    def test_reset(self):
        p = BimodalPredictor(entries=64)
        for _ in range(4):
            p.update(0x100, True)
        p.reset()
        assert p.predict(0x100) is False


class TestMakePredictor:
    @pytest.mark.parametrize("kind", PredictorParams.KNOWN_KINDS)
    def test_all_kinds_instantiate(self, kind):
        p = make_predictor(PredictorParams(kind=kind))
        assert p.predict(0x40) in (True, False)

    def test_tage_budget_is_8kb(self):
        p = make_predictor(PredictorParams())
        assert p.storage_bits() / 8 / 1024 == pytest.approx(8, abs=1.0)
