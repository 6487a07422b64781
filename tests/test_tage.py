"""Behavioural tests for the TAGE predictor, and its packed folded history
and per-PC lookup memo against plain reference formulations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.predictors.tage import TagePredictor, _fold


class TestFold:
    def test_zero_folds_to_zero(self):
        assert _fold(0, 8) == 0

    def test_short_history_unchanged(self):
        assert _fold(0b1011, 8) == 0b1011

    def test_fold_reduces_width(self):
        assert _fold((1 << 40) - 1, 10) < (1 << 10)

    def test_fold_is_xor_of_chunks(self):
        history = 0b1111_0000_1010
        assert _fold(history, 4) == 0b1111 ^ 0b0000 ^ 0b1010


class TestTageBasics:
    def test_initial_prediction_is_boolean(self):
        p = TagePredictor()
        assert p.predict(0x400) in (True, False)

    def test_learns_strong_bias(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x400)
            p.update(0x400, True)
        assert p.predict(0x400) is True

    def test_learns_not_taken_bias(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x404)
            p.update(0x404, False)
        assert p.predict(0x404) is False

    def test_update_without_predict_is_safe(self):
        p = TagePredictor()
        p.update(0x100, True)  # must internally re-predict, not crash

    def test_storage_within_8kb_budget(self):
        bits = TagePredictor().storage_bits()
        assert 6 * 1024 * 8 <= bits <= 9 * 1024 * 8

    def test_reset_forgets(self):
        p = TagePredictor()
        for _ in range(50):
            p.predict(0x400)
            p.update(0x400, True)
        p.reset()
        assert p.history == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TagePredictor(base_entries=100)
        with pytest.raises(ValueError):
            TagePredictor(history_lengths=(10, 5))
        with pytest.raises(ValueError):
            TagePredictor(tag_bits=1)

    def test_reset_equals_fresh(self):
        """A reset predictor replays a stream exactly as a new one does
        (the allocation seed included)."""
        rng = random.Random(7)
        stream = [(rng.randrange(1 << 16) * 4, rng.random() < 0.5) for _ in range(20_000)]

        def replay(p):
            out = []
            for pc, taken in stream:
                out.append(p.predict(pc))
                p.update(pc, taken)
            return out

        used = TagePredictor()
        replay(used)
        used.reset()
        assert replay(used) == replay(TagePredictor())


class TestTageHistory:
    def test_history_shifts_on_update(self):
        p = TagePredictor()
        p.predict(0x100)
        p.update(0x100, True)
        assert p.history & 1 == 1
        p.predict(0x100)
        p.update(0x100, False)
        assert p.history & 1 == 0

    def test_history_masked_to_max_length(self):
        p = TagePredictor(history_lengths=(3, 6))
        for i in range(100):
            p.predict(0x100)
            p.update(0x100, True)
        assert p.history < (1 << 6)


class TestTageLearnsPatterns:
    def _accuracy_on_pattern(self, predictor, pattern, warm=300, measure=300):
        idx = 0
        for _ in range(warm):
            predictor.predict(0x400)
            predictor.update(0x400, pattern[idx % len(pattern)])
            idx += 1
        correct = 0
        for _ in range(measure):
            outcome = pattern[idx % len(pattern)]
            if predictor.predict(0x400) == outcome:
                correct += 1
            predictor.update(0x400, outcome)
            idx += 1
        return correct / measure

    def test_short_period_pattern_learned(self):
        acc = self._accuracy_on_pattern(TagePredictor(), [True, True, False])
        assert acc > 0.9

    def test_longer_period_pattern_learned(self):
        pattern = [True] * 6 + [False]  # loop with 6 trips
        acc = self._accuracy_on_pattern(TagePredictor(), pattern)
        assert acc > 0.85

    def test_correlated_pair_learned(self):
        """B copies A's outcome: global history makes B predictable."""
        p = TagePredictor()
        import random
        rng = random.Random(42)
        correct = 0
        total = 0
        last_a = False
        for i in range(2000):
            a = rng.random() < 0.5
            p.predict(0x100)
            p.update(0x100, a)
            pred_b = p.predict(0x200)
            if i > 500:
                total += 1
                correct += pred_b == a
            p.update(0x200, a)
            last_a = a
        assert correct / total > 0.8

    def test_beats_bimodal_on_alternation(self):
        from repro.branch.predictors.bimodal import BimodalPredictor
        pattern = [True, False]
        tage_acc = self._accuracy_on_pattern(TagePredictor(), pattern)
        bim = BimodalPredictor()
        bim_correct = 0
        idx = 0
        for _ in range(600):
            outcome = pattern[idx % 2]
            if bim.predict(0x400) == outcome:
                bim_correct += 1
            bim.update(0x400, outcome)
            idx += 1
        assert tage_acc > bim_correct / 600


# ---------------------------------------------------------------------------
# Packed folds and the lookup memo against plain references
# ---------------------------------------------------------------------------


@st.composite
def geometries(draw) -> dict:
    lengths = draw(st.lists(st.integers(1, 200), min_size=1, max_size=6, unique=True))
    return dict(
        table_entries=1 << draw(st.integers(1, 12)),
        tag_bits=draw(st.integers(2, 14)),
        history_lengths=tuple(sorted(lengths)),
    )


def _expected_folds(p: TagePredictor) -> tuple[int, int, int]:
    """The three packed ints, rebuilt field by field with :func:`_fold`."""
    iw = p._index_bits
    tw = p._tag_bits
    fi = ft0 = ft1 = 0
    for t, table in enumerate(p.tables):
        h = p.history & ((1 << table.history_length) - 1)
        fi |= _fold(h, iw) << (t * iw)
        ft0 |= _fold(h, tw) << (t * tw)
        ft1 |= _fold(h, tw - 1) << (t * tw + 1)
    return fi, ft0, ft1


def _state(p: TagePredictor) -> tuple:
    return (
        p.base,
        [(t.ctr, t.tag, t.useful) for t in p.tables],
        p.history,
        p._alloc_seed,
        (p._fi, p._ft0, p._ft1),
    )


class TestPackedHistory:
    @given(geometry=geometries(), outcomes=st.lists(st.booleans(), max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_fields_equal_reference_folds(self, geometry, outcomes):
        p = TagePredictor(**geometry)
        for i, taken in enumerate(outcomes):
            p.update(0x400 + 4 * (i % 7), taken)
            assert (p._fi, p._ft0, p._ft1) == _expected_folds(p)

    @given(
        geometry=geometries(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_predicts_change_nothing(self, geometry, seed, n):
        """Extra predicts (repeated and random PCs, as the wrong-path walk
        makes) between updates leave tables, history and every later
        prediction as if only predict+update pairs had run."""
        rng = random.Random(seed)
        pcs = [rng.randrange(1 << 14) * 4 for _ in range(rng.choice([2, 16, 200]))]
        plain = TagePredictor(**geometry)
        probed = TagePredictor(**geometry)
        for _ in range(n):
            pc = rng.choice(pcs)
            taken = rng.random() < 0.6
            for _ in range(rng.randrange(4)):
                probe = rng.choice(pcs) if rng.random() < 0.5 else rng.randrange(1 << 20) * 4
                probed.predict(probe)
                probed.predict(probe)
            assert probed.predict(pc) == plain.predict(pc)
            plain.update(pc, taken)
            probed.update(pc, taken)
        assert _state(probed) == _state(plain)
        assert [probed.predict(pc) for pc in pcs] == [plain.predict(pc) for pc in pcs]
