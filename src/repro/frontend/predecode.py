"""Cache-block predecoder.

Models the hardware that scans the raw bytes of a fetched cache block and
extracts the branch instructions it contains — branch opcodes encode the
kind, and direct branches embed their target offset. Two consumers:

* **Boomerang** (paper Section IV-B): resolve a BTB miss by finding the
  first branch at or after the missing entry's start address, walking
  sequential blocks if the block holds no such branch; stage the block's
  other branches in the BTB prefetch buffer.
* **Confluence**: bulk-insert every branch of an arriving block into the BTB.

The predecoder reads ground truth from the static CFG — in hardware it
reads the same facts from the instruction bytes themselves, which is why
this path needs no metadata.
"""

from __future__ import annotations

from ..branch.btb import BTBEntry
from ..config import INSTR_BYTES
from ..workloads.cfg import ControlFlowGraph, StaticBlock
from ..workloads.isa import BranchKind

_RET = int(BranchKind.RET)


def _entry_for(cfg: ControlFlowGraph, row: int) -> BTBEntry:
    """Natural BTB entry of the static basic block in ``row``."""
    kind = cfg.block_kind[row]
    target = 0 if kind == _RET else cfg.block_target[row]
    return BTBEntry(cfg.block_n_instrs[row], kind, target)


def predecode_block(cfg: ControlFlowGraph, cache_block: int) -> list[tuple[int, BTBEntry]]:
    """All (bb_start, entry) pairs for branches inside ``cache_block``.

    This is Confluence's bulk-fill view of one block.
    """
    starts = cfg.block_start
    return [(starts[row], _entry_for(cfg, row)) for row in cfg.branch_rows(cache_block)]


def _terminating_row(cfg: ControlFlowGraph, rows, from_pc: int) -> int:
    """First of ``rows`` whose branch lies at/after ``from_pc``, else -1."""
    branch_pc = cfg.branch_pc
    for row in rows:
        if branch_pc(row) >= from_pc:
            return row
    return -1


def find_terminating_branch(
    cfg: ControlFlowGraph, cache_block: int, from_pc: int
) -> StaticBlock | None:
    """First branch at/after ``from_pc`` within ``cache_block``, if any.

    ``None`` tells Boomerang's miss state machine to probe the next
    sequential block (paper step 3b).
    """
    row = _terminating_row(cfg, cfg.branch_rows(cache_block), from_pc)
    return cfg.block(row) if row >= 0 else None


def boomerang_fill(
    cfg: ControlFlowGraph, cache_block: int, miss_pc: int
) -> tuple[tuple[int, BTBEntry] | None, list[tuple[int, BTBEntry]]]:
    """Boomerang predecode step for one block.

    Returns ``(terminating, others)`` where ``terminating`` is the entry
    that resolves the BTB miss at ``miss_pc`` (keyed at ``miss_pc``, sized
    from ``miss_pc`` to the found branch) or ``None`` if the block holds no
    branch at/after ``miss_pc``; ``others`` are the block's remaining
    branch entries, destined for the BTB prefetch buffer.
    """
    rows = cfg.branch_rows(cache_block)
    term = _terminating_row(cfg, rows, miss_pc)
    starts = cfg.block_start
    if term < 0:
        return None, [(starts[row], _entry_for(cfg, row)) for row in rows]
    term_pc = cfg.branch_pc(term)
    others = [
        (starts[row], _entry_for(cfg, row))
        for row in rows
        if cfg.branch_pc(row) != term_pc
    ]
    kind = cfg.block_kind[term]
    target = 0 if kind == _RET else cfg.block_target[term]
    entry = BTBEntry((term_pc - miss_pc) // INSTR_BYTES + 1, kind, target)
    return (miss_pc, entry), others
