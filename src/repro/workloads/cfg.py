"""Static control-flow graph of a synthetic program.

A program is a contiguous code layout of *functions*, each a contiguous run
of *basic blocks*. A basic block is a straight-line instruction sequence
whose final instruction is a branch (the paper's — and Yeh & Patt's —
basic-block-BTB definition). The CFG carries both the structural facts the
front-end hardware can observe (addresses, branch kinds, primary targets)
and the behavioural model the trace walker uses (branch biases, loop trip
counts, indirect target sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import INSTR_BYTES
from ..errors import WorkloadError
from .isa import INDIRECT_KINDS, BranchKind, block_of

#: Kinds whose fall-through must be a block start (execution resumes there).
_FALLS_THROUGH = frozenset((BranchKind.COND, BranchKind.CALL, BranchKind.IND_CALL))

#: Kinds whose primary target must be a block start.
_DIRECT = frozenset((BranchKind.COND, BranchKind.JUMP, BranchKind.CALL))


@dataclass(frozen=True, slots=True)
class StaticBlock:
    """One basic block: layout plus the behaviour of its terminating branch.

    ``target`` is the *primary* static target: the taken target for direct
    branches, the most likely target for indirect branches, and ``0`` for
    returns (whose target comes from the call stack).

    Slotted, with no per-instance ``__dict__``: every process that
    replays a workload keeps one instance per static block resident.
    """

    start: int
    n_instrs: int
    kind: BranchKind
    target: int
    func_id: int
    #: P(taken) for Bernoulli conditional branches (ignored for loops/patterns).
    bias: float = 0.5
    #: Mean trip count when this is a loop back-edge branch (0 = not a loop).
    loop_mean: float = 0.0
    #: (target_pc, weight) alternatives for indirect branches.
    indirect_targets: tuple[tuple[int, float], ...] = ()
    #: History-correlated branches: outcome copies (or inverts) the most
    #: recent outcome of the branch terminating the block at ``corr_src``.
    #: These model re-tests of the same condition along a path — visible in
    #: recent global history, so TAGE learns them and a bimodal counter
    #: only sees the marginal distribution.
    corr_src: int = 0
    corr_invert: bool = False

    @property
    def branch_pc(self) -> int:
        """Address of the terminating branch instruction."""
        return self.start + (self.n_instrs - 1) * INSTR_BYTES

    @property
    def fallthrough(self) -> int:
        """Address of the instruction after the terminating branch."""
        return self.start + self.n_instrs * INSTR_BYTES

    @property
    def size_bytes(self) -> int:
        return self.n_instrs * INSTR_BYTES

    @property
    def is_conditional(self) -> bool:
        return self.kind == BranchKind.COND

    @property
    def is_loop(self) -> bool:
        return self.kind == BranchKind.COND and self.loop_mean > 0


@dataclass(frozen=True, slots=True)
class Function:
    """A contiguous run of basic blocks with a single entry."""

    func_id: int
    name: str
    entry: int
    layer: int
    block_starts: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.block_starts)


@dataclass
class ControlFlowGraph:
    """The full static program: blocks, functions, and derived indexes."""

    blocks: dict[int, StaticBlock]
    functions: list[Function]
    entry: int
    name: str = "synthetic"
    #: Cache-block number -> blocks whose branch lies there, sorted by
    #: branch address. Filled eagerly by ``__post_init__``, so the set-up
    #: cost stays in the build instead of the first predecoding cell.
    _branch_map: dict[int, list[StaticBlock]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # One stable sort by branch address, then bucketing: every list
        # comes out sorted, with ties in ``blocks`` order.
        blocks = list(self.blocks.values())
        branch_pcs = [blk.start + (blk.n_instrs - 1) * INSTR_BYTES for blk in blocks]
        self._branch_map = {}
        setdefault = self._branch_map.setdefault
        for i in sorted(range(len(blocks)), key=branch_pcs.__getitem__):
            setdefault(block_of(branch_pcs[i]), []).append(blocks[i])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def code_bytes(self) -> int:
        """Total laid-out code footprint in bytes."""
        if not self.blocks:
            return 0
        last = max(self.blocks.values(), key=lambda b: b.start)
        first = min(b.start for b in self.blocks.values())
        return last.fallthrough - first

    @property
    def n_static_branches(self) -> int:
        """Every basic block ends in exactly one branch."""
        return len(self.blocks)

    def block_at(self, pc: int) -> StaticBlock:
        try:
            return self.blocks[pc]
        except KeyError:
            raise WorkloadError(f"no basic block starts at {pc:#x}") from None

    def branches_in_cache_block(self, cache_block: int) -> list[StaticBlock]:
        """Blocks whose terminating branch lies in ``cache_block``.

        This is what a hardware predecoder can extract from the raw bytes of
        one fetched cache block (branch opcodes encode kind and offset). The
        result is sorted by branch address.
        """
        return self._branch_map.get(cache_block, [])

    def function_of(self, func_id: int) -> Function:
        return self.functions[func_id]

    def validate(self) -> None:
        """Check structural invariants; raises :class:`WorkloadError`.

        Invariants: positive block sizes; fall-throughs of conditional
        branches and calls land on block starts; direct targets land on
        block starts; calls target function entries; indirect branches
        carry a non-empty, positively-weighted target set that includes
        the primary target. One pass over the blocks, then one over the
        functions.
        """
        blocks = self.blocks
        if self.entry not in blocks:
            raise WorkloadError(f"entry {self.entry:#x} is not a block start")
        func_entries = {f.entry for f in self.functions}
        for blk in blocks.values():
            start, n_instrs, kind, target = blk.start, blk.n_instrs, blk.kind, blk.target
            if n_instrs < 1:
                raise WorkloadError(f"block {start:#x} has no instructions")
            if kind in _FALLS_THROUGH:
                fallthrough = start + n_instrs * INSTR_BYTES
                if fallthrough not in blocks:
                    raise WorkloadError(
                        f"block {start:#x} ({kind.name}) falls through to "
                        f"{fallthrough:#x}, which is not a block start"
                    )
            if kind in _DIRECT and target not in blocks:
                raise WorkloadError(
                    f"block {start:#x} targets {target:#x}, which is not a block start"
                )
            if kind == BranchKind.CALL:
                if target not in func_entries:
                    raise WorkloadError(
                        f"call at {blk.branch_pc:#x} targets non-entry {target:#x}"
                    )
            elif kind in INDIRECT_KINDS:
                indirect = blk.indirect_targets
                if not indirect:
                    raise WorkloadError(
                        f"indirect branch at {blk.branch_pc:#x} has no target set"
                    )
                for tgt, weight in indirect:
                    if tgt not in blocks:
                        raise WorkloadError(
                            f"indirect target {tgt:#x} is not a block start"
                        )
                    if weight <= 0:
                        raise WorkloadError(
                            f"indirect target {tgt:#x} has non-positive weight"
                        )
                if target not in {tgt for tgt, _ in indirect}:
                    raise WorkloadError(
                        f"indirect branch at {blk.branch_pc:#x}: primary target "
                        "not in the target set"
                    )
            cond_nonloop = kind == BranchKind.COND and not (blk.loop_mean > 0)
            if cond_nonloop and not (0.0 <= blk.bias <= 1.0):
                raise WorkloadError(
                    f"conditional at {blk.branch_pc:#x} has bias {blk.bias}"
                )
            if blk.corr_src:
                if not cond_nonloop:
                    raise WorkloadError(
                        f"correlation on non-conditional branch at {blk.branch_pc:#x}"
                    )
                src = blocks.get(blk.corr_src)
                if src is None or src.kind != BranchKind.COND:
                    raise WorkloadError(
                        f"correlated branch at {blk.branch_pc:#x} has a "
                        f"non-conditional source {blk.corr_src:#x}"
                    )
        for func in self.functions:
            for start in func.block_starts:
                if start not in blocks:
                    raise WorkloadError(
                        f"function {func.name} lists missing block {start:#x}"
                    )
            if func.entry != func.block_starts[0]:
                raise WorkloadError(f"function {func.name} entry is not its first block")
