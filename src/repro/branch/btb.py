"""Branch target buffers.

The central structure is the **basic-block-oriented BTB** (Yeh & Patt),
which Boomerang depends on: each entry describes one basic block — its
size and its terminating branch's kind and target — keyed by the block's
start address. Because every entry holds exactly one branch, a lookup that
returns nothing is an unambiguous *BTB miss* (a conventional
instruction-granularity BTB cannot distinguish "miss" from "not a branch";
see paper Section IV-B).

Also provided: the small FIFO **BTB prefetch buffer** Boomerang uses to
stage predecoded entries without polluting the BTB.
"""

from __future__ import annotations

from typing import NamedTuple

from ..config import BTBParams


class BTBEntry(NamedTuple):
    """Payload of one basic-block BTB entry."""

    n_instrs: int        #: basic-block size in instructions
    kind: int            #: BranchKind of the terminating branch
    target: int          #: predicted taken-target (0 for returns)


class BasicBlockBTB:
    """Set-associative, LRU, basic-block-oriented BTB."""

    def __init__(self, params: BTBParams):
        self.params = params
        self._set_mask = params.n_sets - 1
        self._assoc = params.assoc
        self._sets: list[dict[int, BTBEntry]] = [dict() for _ in range(params.n_sets)]
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def _set_for(self, pc: int) -> dict[int, BTBEntry]:
        # Instructions are 4-byte aligned; drop the zero bits for indexing.
        return self._sets[(pc >> 2) & self._set_mask]

    def lookup(self, pc: int) -> BTBEntry | None:
        """Look up the basic block starting at ``pc`` (LRU touch on hit)."""
        self.lookups += 1
        way = self._set_for(pc)
        entry = way.get(pc)
        if entry is not None:
            del way[pc]
            way[pc] = entry
            self.hits += 1
        return entry

    def contains(self, pc: int) -> bool:
        """Presence check with no LRU or counter side effects."""
        return pc in self._set_for(pc)

    def insert(self, pc: int, entry: BTBEntry) -> int | None:
        """Install/refresh an entry; returns the evicted key, if any."""
        way = self._set_for(pc)
        victim = None
        if pc in way:
            del way[pc]
        elif len(way) >= self._assoc:
            victim = next(iter(way))
            del way[victim]
            self.evictions += 1
        way[pc] = entry
        self.inserts += 1
        return victim

    def update_target(self, pc: int, target: int) -> bool:
        """Retarget an existing entry (indirect-branch learning)."""
        way = self._set_for(pc)
        entry = way.get(pc)
        if entry is None:
            return False
        way[pc] = entry._replace(target=target)
        return True

    def occupancy(self) -> int:
        return sum(len(way) for way in self._sets)

    def reset(self) -> None:
        for way in self._sets:
            way.clear()
        self.lookups = 0
        self.hits = 0
        self.inserts = 0
        self.evictions = 0


class BTBPrefetchBuffer:
    """Boomerang's 32-entry FIFO staging buffer for predecoded BTB entries.

    Looked up in parallel with the BTB; a hit moves the entry into the BTB
    (the caller does the move). FIFO replacement, per the paper.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("BTB prefetch buffer capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[int, BTBEntry] = {}
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

    def __contains__(self, pc: int) -> bool:
        return pc in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, pc: int, entry: BTBEntry) -> None:
        if pc in self._entries:
            self._entries[pc] = entry
            return
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            del self._entries[victim]
            self.evictions += 1
        self._entries[pc] = entry
        self.inserts += 1

    def take(self, pc: int) -> BTBEntry | None:
        """Remove and return the entry for ``pc`` (hit path)."""
        entry = self._entries.pop(pc, None)
        if entry is not None:
            self.hits += 1
        return entry

    def reset(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.inserts = 0
        self.evictions = 0

