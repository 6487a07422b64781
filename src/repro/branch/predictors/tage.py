"""TAGE direction predictor (Seznec & Michaud), the paper's Table I choice.

A base bimodal table plus N partially-tagged tables indexed by geometrically
increasing global-history lengths. This implementation follows the standard
formulation: longest-matching table provides the prediction; allocation on
mispredicts targets a longer-history table with a free useful counter;
useful bits age periodically. Sized to the paper's 8 KB budget by default
(4K-entry base + 4 x 1K-entry tagged tables, 8-bit tags).

Folded history is packed. Table ``t`` hashes three folds of its history
window ``h_t`` (the global history masked to its length), and each kind is
one int with a field per table: ``_fi`` holds ``_fold(h_t, index_bits)``
at bit ``t * index_bits``, ``_ft0`` holds ``_fold(h_t, tag_bits)`` at bit
``t * tag_bits`` and ``_ft1`` holds ``_fold(h_t, tag_bits - 1)`` one bit
above that, pre-shifted as the tag hash uses it. Folding is GF(2)-linear
per bit position (history bit ``p`` lands at ``p % bits``), so shifting a
bit in rotates every field left by one, XORs the new bit in at the
field's bottom and XORs the bit leaving the window out at
``length % bits``: one mask/shift pair per int. A lookup XORs the PC term
into every field at once and reads each table's field. Only ``update``
changes predictor state, so a lookup's working set is memoised per PC
until the next update: the wrong-path walk re-predicting a PC is a hit.
"""

from __future__ import annotations

from .base import DirectionPredictor


def _fold(history: int, bits: int) -> int:
    """XOR-fold an arbitrary-width history integer into ``bits`` bits.

    Reference formulation of the folds the predictor keeps incrementally.
    """
    mask = (1 << bits) - 1
    acc = 0
    while history:
        acc ^= history & mask
        history >>= bits
    return acc


class _TaggedTable:
    """One tagged TAGE component."""

    __slots__ = ("history_length", "tag_bits", "ctr", "tag", "useful")

    def __init__(self, entries: int, tag_bits: int, history_length: int):
        self.history_length = history_length
        self.tag_bits = tag_bits
        self.ctr = [3] * entries          # 3-bit counter, >=4 predicts taken
        self.tag = [0] * entries
        self.useful = [0] * entries       # 2-bit useful counter


class TagePredictor(DirectionPredictor):
    """TAGE with a bimodal base and geometric-history tagged tables."""

    name = "tage"

    #: Clear all useful bits every this many updates (graceful aging).
    _USEFUL_RESET_PERIOD = 1 << 18

    def __init__(
        self,
        base_entries: int = 4096,
        table_entries: int = 1024,
        tag_bits: int = 8,
        history_lengths: tuple[int, ...] = (5, 15, 44, 130),
    ):
        if base_entries & (base_entries - 1):
            raise ValueError("base entries must be a power of two")
        if table_entries < 2 or table_entries & (table_entries - 1) or tag_bits < 2:
            raise ValueError("table entries must be a power of two; tag bits >= 2")
        if not history_lengths or list(history_lengths) != sorted(set(history_lengths)):
            raise ValueError("history lengths must be strictly increasing")
        self._geometry = (base_entries, table_entries, tag_bits, history_lengths)
        self.base_entries = base_entries
        self._base_mask = base_entries - 1
        self.base = [1] * base_entries    # 2-bit counters, weakly not-taken
        self.tables = [
            _TaggedTable(table_entries, tag_bits, length) for length in history_lengths
        ]
        n = len(self.tables)
        iw = self._index_bits = table_entries.bit_length() - 1
        tw = self._tag_bits = tag_bits
        self._index_mask = table_entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        # Field-bottom bits, and every bit but those: the rotate's masks.
        ones_i = self._ones_i = sum(1 << (t * iw) for t in range(n))
        ones_t = self._ones_t = sum(1 << (t * tw) for t in range(n))
        self._keep_i = ((1 << (n * iw)) - 1) ^ ones_i
        self._keep_t = ((1 << (n * tw)) - 1) ^ ones_t
        # The shifted-in history's new bit (bit 0) and outgoing bits (table
        # t's at its length) -> the XOR terms of the three folds.
        self._shift_key = 1 | sum(1 << length for length in history_lengths)
        self._shift_xor: dict[int, tuple[int, int, int]] = {}
        for subset in range(2 << n):
            key = subset & 1
            xi, x0, x1 = (ones_i, ones_t, ones_t << 1) if key else (0, 0, 0)
            for t, length in enumerate(history_lengths):
                if subset >> (t + 1) & 1:
                    key |= 1 << length
                    xi ^= 1 << (t * iw + length % iw)
                    x0 ^= 1 << (t * tw + length % tw)
                    x1 ^= 1 << (t * tw + 1 + length % (tw - 1))
            self._shift_xor[key] = (xi, x0, x1)
        self._max_hist_mask = (1 << history_lengths[-1]) - 1
        self.history = 0
        self._fi = self._ft0 = self._ft1 = 0
        self._updates = 0
        self._alloc_seed = 0x9E3779B9      # deterministic pseudo-randomness
        #: pc -> lookup working set, valid until the next update().
        self._memo: dict[int, tuple] = {}

    # -- prediction ---------------------------------------------------------

    def _lookup(self, pc: int) -> tuple:
        """``pc``'s working set: (pred, provider, provider_idx, alt_pred,
        provider_pred, packed indices, packed tags)."""
        pc2 = pc >> 2
        ibits = self._index_bits
        tbits = self._tag_bits
        imask = self._index_mask
        tmask = self._tag_mask
        vi = self._fi ^ ((pc2 ^ (pc2 >> ibits)) & imask) * self._ones_i
        vt = self._ft0 ^ self._ft1 ^ (pc2 & tmask) * self._ones_t
        provider = alt = -1
        p_idx = a_idx = 0
        fi, ft = vi, vt
        t = 0
        for table in self.tables:
            idx = fi & imask
            if table.tag[idx] == ft & tmask:
                alt, a_idx = provider, p_idx
                provider, p_idx = t, idx
            fi >>= ibits
            ft >>= tbits
            t += 1
        if provider >= 0:
            table = self.tables[provider]
            ctr = table.ctr[p_idx]
            provider_pred = ctr >= 4
            if alt >= 0:
                alt_pred = self.tables[alt].ctr[a_idx] >= 4
            else:
                alt_pred = self.base[pc2 & self._base_mask] >= 2
            # "Use alt on newly allocated": a weak, never-proven-useful
            # provider entry is likely fresh noise — trust the alternate.
            if table.useful[p_idx] == 0 and (ctr == 3 or ctr == 4):
                pred = alt_pred
            else:
                pred = provider_pred
        else:
            pred = alt_pred = provider_pred = self.base[pc2 & self._base_mask] >= 2
        return pred, provider, p_idx, alt_pred, provider_pred, vi, vt

    def predict(self, pc: int) -> bool:
        ws = self._memo.get(pc)
        if ws is None:
            ws = self._memo[pc] = self._lookup(pc)
        return ws[0]

    # -- training -----------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        memo = self._memo
        ws = memo.get(pc) or self._lookup(pc)
        memo.clear()
        pred, provider, idx, alt_pred, provider_pred, vi, vt = ws

        if provider >= 0:
            table = self.tables[provider]
            ctr = table.ctr[idx]
            if taken:
                if ctr < 7:
                    table.ctr[idx] = ctr + 1
            elif ctr > 0:
                table.ctr[idx] = ctr - 1
            # Useful counter: provider was useful iff it disagreed with the
            # alternate and was right (harmful if it was wrong).
            if provider_pred != alt_pred:
                u = table.useful[idx]
                if provider_pred == taken:
                    if u < 3:
                        table.useful[idx] = u + 1
                elif u > 0:
                    table.useful[idx] = u - 1
        else:
            bidx = (pc >> 2) & self._base_mask
            ctr = self.base[bidx]
            if taken:
                if ctr < 3:
                    self.base[bidx] = ctr + 1
            elif ctr > 0:
                self.base[bidx] = ctr - 1

        # Allocate a longer-history entry on a mispredict.
        if pred != taken and provider < len(self.tables) - 1:
            self._allocate(vi, vt, provider, taken)

        self._updates += 1
        if self._updates % self._USEFUL_RESET_PERIOD == 0:
            for table in self.tables:
                table.useful = [0] * len(table.useful)

        # Shift the new bit into the history and every fold at once.
        h = (self.history << 1) | taken
        xi, x0, x1 = self._shift_xor[h & self._shift_key]
        self.history = h & self._max_hist_mask
        ones_i = self._ones_i
        ones_t = self._ones_t
        keep_t = self._keep_t
        fi = self._fi
        self._fi = (((fi << 1) & self._keep_i) | ((fi >> (self._index_bits - 1)) & ones_i)) ^ xi
        ft = self._ft0
        self._ft0 = (((ft << 1) & keep_t) | ((ft >> (self._tag_bits - 1)) & ones_t)) ^ x0
        ft = self._ft1
        self._ft1 = (((ft << 1) & keep_t) | ((ft >> (self._tag_bits - 2)) & (ones_t << 1))) ^ x1

    def _allocate(self, vi: int, vt: int, provider: int, taken: bool) -> None:
        ibits = self._index_bits
        tbits = self._tag_bits
        imask = self._index_mask
        tables = self.tables
        start = provider + 1
        indices = {t: (vi >> (t * ibits)) & imask for t in range(start, len(tables))}
        candidates = [t for t, idx in indices.items() if tables[t].useful[idx] == 0]
        if not candidates:
            # Nothing free: age the candidates instead of allocating.
            for t, idx in indices.items():
                if tables[t].useful[idx] > 0:
                    tables[t].useful[idx] -= 1
            return
        # Prefer shorter history (standard TAGE bias: pick the first free
        # table with probability 1/2, else the next).
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        pick = candidates[0]
        if len(candidates) > 1 and (self._alloc_seed >> 16) & 1:
            pick = candidates[1]
        table = tables[pick]
        idx = indices[pick]
        table.tag[idx] = (vt >> (pick * tbits)) & self._tag_mask
        table.ctr[idx] = 4 if taken else 3
        table.useful[idx] = 0

    # -- accounting ---------------------------------------------------------

    def storage_bits(self) -> int:
        bits = 2 * self.base_entries
        for table in self.tables:
            entry_bits = 3 + table.tag_bits + 2
            bits += entry_bits * len(table.ctr)
        bits += self.tables[-1].history_length  # global history register
        return bits

    def reset(self) -> None:
        """Restore a freshly constructed predictor of the same geometry."""
        self.__init__(*self._geometry)  # type: ignore[misc]
