"""Static control-flow graph of a synthetic program.

A program is a contiguous code layout of *functions*, each a contiguous run
of *basic blocks*. A basic block is a straight-line instruction sequence
whose final instruction is a branch (the paper's — and Yeh & Patt's —
basic-block-BTB definition). The CFG carries both the structural facts the
front-end hardware can observe (addresses, branch kinds, primary targets)
and the behavioural model the trace walker uses (branch biases, loop trip
counts, indirect target sets).

Every process that replays a workload keeps its CFG resident, so the
graph is held as columns rather than objects: one typed ``array`` per
scalar :class:`StaticBlock` field (a block is a *row*), the indirect
target pools as offset-indexed flat arrays, and the functions the same
way — the :data:`CFG_ARRAYS` layout, which the trace store writes and
reads as-is. Two indexes are built once per graph:

* a dense array from instruction slot to row over the code span,
  so :meth:`ControlFlowGraph.row_of` answers any pc in O(1);
* the rows sorted by branch address plus per-cache-block offsets into
  them, so :meth:`ControlFlowGraph.branch_rows` is the predecoder's view
  of one cache block (paper Section IV: size, kind and target read from
  the bytes of one block).

Hot readers (the BPU, fetch's learn path, the predecoder, the trace
walker) read the columns by row. :class:`StaticBlock` and
:class:`Function` remain the types tests construct and the view for cold
paths: :meth:`ControlFlowGraph.block_at`, the read-only
:attr:`ControlFlowGraph.blocks` mapping (a block is built only when an
entry is read) and :attr:`ControlFlowGraph.functions`.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import accumulate, chain, repeat
from operator import attrgetter

from ..config import INSTR_BYTES
from ..errors import WorkloadError
from .isa import INDIRECT_KINDS, BranchKind

#: Kinds whose fall-through must be a block start (execution resumes there).
_FALLS_THROUGH = frozenset((BranchKind.COND, BranchKind.CALL, BranchKind.IND_CALL))

#: Kinds whose primary target must be a block start.
_DIRECT = frozenset((BranchKind.COND, BranchKind.JUMP, BranchKind.CALL))

#: Widest code span (lowest to highest address of any block or branch) a
#: CFG may cover: the pc index holds one slot per instruction across it.
#: The largest stock profile lays out 640 KB.
_MAX_CODE_SPAN = 64 << 20


@dataclass(frozen=True, slots=True)
class StaticBlock:
    """One basic block: layout plus the behaviour of its terminating branch.

    ``target`` is the *primary* static target: the taken target for direct
    branches, the most likely target for indirect branches, and ``0`` for
    returns (whose target comes from the call stack).

    A :class:`ControlFlowGraph` stores blocks as columns; a StaticBlock is
    what a caller hands it and what its cold-path views return.
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


#: (name, typecode) of every CFG column, in the order the trace store
#: writes them. The ``block.*`` arrays hold the scalar StaticBlock fields
#: in the order ``tests/test_build_digests.py::cfg_digest`` hashes them;
#: the ``*offsets`` arrays have one more entry than their owners, and
#: owner ``i``'s items are ``[offsets[i], offsets[i + 1])`` of the next
#: arrays. A ControlFlowGraph holds each as the attribute named with the
#: dot replaced by an underscore (``block.start`` -> ``cfg.block_start``).
#: Each holds its values at the narrowest fixed width they need: a pc is
#: an unsigned 32-bit 'I' and a block size an unsigned 16-bit 'H'. A value
#: outside its column's range raises :class:`~repro.errors.WorkloadError`.
CFG_ARRAYS = (
    ("block.start", "I"),
    ("block.n_instrs", "H"),
    ("block.kind", "b"),
    ("block.target", "I"),
    ("block.func_id", "i"),
    ("block.bias", "d"),
    ("block.loop_mean", "d"),
    ("block.corr_src", "I"),
    ("block.corr_invert", "b"),
    ("indirect.offsets", "i"),
    ("indirect.target", "I"),
    ("indirect.weight", "d"),
    ("func.id", "i"),
    ("func.entry", "I"),
    ("func.layer", "i"),
    ("func.block_offsets", "i"),
    ("func.block_starts", "I"),
)

_ARRAY_ATTRS = tuple(name.replace(".", "_") for name, _ in CFG_ARRAYS)

#: A block's fields in declaration order: the row a StaticBlock stands for.
_BLOCK_ROW = attrgetter(*(f.name for f in fields(StaticBlock)))

#: Where ``indirect_targets`` sits in a row; every other field is a
#: ``block.*`` array.
_INDIRECT_FIELD = [f.name for f in fields(StaticBlock)].index("indirect_targets")


def _typed(name: str, typecode: str, values: Sequence[int | float]) -> array:
    """``values`` as an array of ``typecode``; a value it cannot hold raises
    :class:`~repro.errors.WorkloadError` naming the column and the value."""
    try:
        return array(typecode, values)
    except OverflowError:
        bits = 8 * array(typecode).itemsize
        lo = 0 if typecode.isupper() else -(1 << bits - 1)  # 'I'/'H' are unsigned
        bad = next(v for v in values if not lo <= v < lo + (1 << bits))
        raise WorkloadError(
            f"{name} value {bad} ({bad:#x}) does not fit {bits}-bit '{typecode}'"
        ) from None


def _check_span(lo: int, hi: int) -> None:
    if hi - lo > _MAX_CODE_SPAN:
        raise WorkloadError(f"code span {lo:#x}..{hi:#x} exceeds {_MAX_CODE_SPAN} bytes")


def cfg_arrays(
    rows: Iterable[tuple], functions: Iterable[Function]
) -> list[array]:
    """Block rows and functions as typed arrays in :data:`CFG_ARRAYS` order.

    A row holds a block's fields in :class:`StaticBlock` declaration
    order; builders that make many blocks pass rows and skip the objects.
    Block starts more than the code span apart are rejected first, so a
    graph too wide to index fails as such before any column's width does.
    """
    columns: list[Sequence[int | float]] = list(zip(*rows))
    if not columns:
        columns = [()] * len(fields(StaticBlock))
    starts = columns[0]
    if starts:
        _check_span(min(starts), max(starts))
    indirect = columns.pop(_INDIRECT_FIELD)
    pairs = list(chain.from_iterable(indirect))
    funcs = list(functions)
    columns += [
        list(accumulate(map(len, indirect), initial=0)),
        [target for target, _ in pairs],
        [weight for _, weight in pairs],
        [f.func_id for f in funcs],
        [f.entry for f in funcs],
        [f.layer for f in funcs],
        list(accumulate((f.n_blocks for f in funcs), initial=0)),
        list(chain.from_iterable(f.block_starts for f in funcs)),
    ]
    return [
        _typed(name, tc, column) for (name, tc), column in zip(CFG_ARRAYS, columns)
    ]


class ControlFlowGraph:
    """The full static program as columns, with its pc and branch indexes.

    Construct from StaticBlocks (a mapping keyed by start, or an iterable
    in row order) and Functions, or with :meth:`from_arrays` from columns
    in :data:`CFG_ARRAYS` order. Rows keep the order the blocks were
    given in, so a stored and reloaded graph iterates like the original.
    Block starts must be distinct and instruction-aligned relative to one
    another, within a code span of at most 64 MiB, and every value must
    fit its column's width (a pc below 2**32, a block size below 2**16);
    anything else raises :class:`~repro.errors.WorkloadError`. Arrays of
    another width are converted, those at the :data:`CFG_ARRAYS` widths
    used as-is. The arrays are read-only by convention: the indexes are
    built once, from their contents.
    """

    __slots__ = (
        *_ARRAY_ATTRS,
        "function_names",
        "entry",
        "name",
        "code_base",
        "row_by_slot",
        "_cb_lo",
        "_cb_offsets",
        "_branch_rows",
    )

    block_start: array[int]
    block_n_instrs: array[int]
    block_kind: array[int]
    block_target: array[int]
    block_func_id: array[int]
    block_bias: array[float]
    block_loop_mean: array[float]
    block_corr_src: array[int]
    block_corr_invert: array[int]
    indirect_offsets: array[int]
    indirect_target: array[int]
    indirect_weight: array[float]
    func_id: array[int]
    func_entry: array[int]
    func_layer: array[int]
    func_block_offsets: array[int]
    func_block_starts: array[int]
    function_names: list[str]
    entry: int
    name: str
    #: The lowest block start; instruction slot ``i`` is ``code_base + 4 * i``.
    code_base: int
    #: Row of the block starting at each instruction slot, -1 where none
    #: does. Hot paths that hold a known block start index it directly:
    #: ``row_by_slot[(start - code_base) >> 2]``.
    row_by_slot: array[int]

    def __init__(
        self,
        blocks: Mapping[int, StaticBlock] | Iterable[StaticBlock],
        functions: Iterable[Function],
        entry: int,
        name: str = "synthetic",
    ) -> None:
        if isinstance(blocks, Mapping):
            blocks = blocks.values()
        funcs = list(functions)
        arrays = cfg_arrays(map(_BLOCK_ROW, blocks), funcs)
        self._load(arrays, [f.name for f in funcs], entry, name)

    @classmethod
    def from_arrays(
        cls,
        arrays: Sequence[array],
        function_names: list[str],
        entry: int,
        name: str = "synthetic",
    ) -> ControlFlowGraph:
        """A graph over ``arrays`` (:data:`CFG_ARRAYS` order and widths)."""
        cfg = cls.__new__(cls)
        cfg._load(arrays, function_names, entry, name)
        return cfg

    def _load(
        self, arrays: Sequence[array], function_names: list[str], entry: int, name: str
    ) -> None:
        for attr, (column, tc), arr in zip(_ARRAY_ATTRS, CFG_ARRAYS, arrays, strict=True):
            setattr(self, attr, arr if arr.typecode == tc else _typed(column, tc, arr))
        self.function_names = function_names
        self.entry = entry
        self.name = name
        self._build_indexes()

    def _build_indexes(self) -> None:
        starts = self.block_start
        n = len(starts)
        branch_pcs = [
            start + (n_instrs - 1) * INSTR_BYTES
            for start, n_instrs in zip(starts, self.block_n_instrs)
        ]
        # One stable sort by branch address (ties keep row order) orders
        # the branch index and bounds the code span.
        order = sorted(range(n), key=branch_pcs.__getitem__)
        self.code_base = base = min(starts, default=0)
        self._cb_lo = cb_lo = branch_pcs[order[0]] >> 6 if n else 0  # block_of
        if n:
            lo = min(base, branch_pcs[order[0]])
            hi = max(max(starts), branch_pcs[order[-1]])
            _check_span(lo, hi)
            if len({start & (INSTR_BYTES - 1) for start in starts}) > 1:
                bad = next(s for s in starts if (s - base) & (INSTR_BYTES - 1))
                raise WorkloadError(f"block {bad:#x} is not instruction-aligned")
            if len(set(starts)) != n:
                dup = next(s for s, k in Counter(starts).items() if k > 1)
                raise WorkloadError(f"two blocks start at {dup:#x}")
        # Row numbers and offsets fit two bytes in all but the largest
        # graphs; the pc index has a slot per instruction, so that halves it.
        typecode = "h" if n < 1 << 15 else "i"
        # pc -> row: one slot per instruction from the lowest start to
        # the highest, -1 where no block starts.
        slots = [(start - base) >> 2 for start in starts]
        self.row_by_slot = rows = array(typecode, [-1]) * (max(slots, default=-1) + 1)
        deque(map(rows.__setitem__, slots, range(n)), maxlen=0)
        # Cache block -> rows whose branch lies there: offsets into the
        # rows in branch-address order, one per cache block of the span.
        self._branch_rows = array(typecode, order)
        per_block = Counter(pc >> 6 for pc in branch_pcs)
        cb_end = branch_pcs[order[-1]] >> 6 if n else cb_lo - 1
        self._cb_offsets = array(
            typecode,
            accumulate(
                map(per_block.get, range(cb_lo, cb_end + 1), repeat(0)), initial=0
            ),
        )

    # ------------------------------------------------------------ columns

    @property
    def arrays(self) -> tuple[array, ...]:
        """Every column, in :data:`CFG_ARRAYS` order."""
        return tuple(getattr(self, attr) for attr in _ARRAY_ATTRS)

    def row_of(self, pc: int) -> int:
        """Row of the block starting at ``pc``, or -1 if none does."""
        slot = (pc - self.code_base) >> 2
        rows = self.row_by_slot
        row = rows[slot] if 0 <= slot < len(rows) else -1
        # A pc between two slots shares the lower one's entry.
        return row if row >= 0 and self.block_start[row] == pc else -1

    def next_block_start(self, pc: int) -> int | None:
        """Smallest block start strictly greater than ``pc``, if any."""
        rows = self.row_by_slot
        if not rows:
            return None
        slot = max(0, ((pc - self.code_base) >> 2) + 1)
        for slot in range(slot, len(rows)):
            if rows[slot] >= 0:
                return self.code_base + (slot << 2)
        return None

    def branch_rows(self, cache_block: int) -> array[int]:
        """Rows whose terminating branch lies in ``cache_block``, by branch pc.

        This is what a hardware predecoder can extract from the raw bytes
        of one fetched cache block (branch opcodes encode kind and offset).
        """
        idx = cache_block - self._cb_lo
        offsets = self._cb_offsets
        if idx < 0 or idx + 1 >= len(offsets):
            return self._branch_rows[:0]
        return self._branch_rows[offsets[idx] : offsets[idx + 1]]

    def branch_pc(self, row: int) -> int:
        """Address of the terminating branch of ``row``."""
        return self.block_start[row] + (self.block_n_instrs[row] - 1) * INSTR_BYTES

    def indirect_targets(self, row: int) -> tuple[tuple[int, float], ...]:
        """The (target_pc, weight) pool of ``row`` (empty for direct branches)."""
        lo, hi = self.indirect_offsets[row], self.indirect_offsets[row + 1]
        return tuple(zip(self.indirect_target[lo:hi], self.indirect_weight[lo:hi]))

    # ---------------------------------------------------------- cold views

    def block(self, row: int) -> StaticBlock:
        """``row`` as a freshly built StaticBlock."""
        return StaticBlock(
            start=self.block_start[row],
            n_instrs=self.block_n_instrs[row],
            kind=BranchKind(self.block_kind[row]),
            target=self.block_target[row],
            func_id=self.block_func_id[row],
            bias=self.block_bias[row],
            loop_mean=self.block_loop_mean[row],
            indirect_targets=self.indirect_targets(row),
            corr_src=self.block_corr_src[row],
            corr_invert=bool(self.block_corr_invert[row]),
        )

    @property
    def blocks(self) -> BlockView:
        """Read-only start -> StaticBlock mapping, in row order."""
        return BlockView(self)

    @property
    def functions(self) -> list[Function]:
        """Every function, freshly built, in function-id order."""
        return [self.function_of(i) for i in range(len(self.function_names))]

    @property
    def n_blocks(self) -> int:
        return len(self.block_start)

    @property
    def code_bytes(self) -> int:
        """Total laid-out code footprint in bytes."""
        if not self.row_by_slot:
            return 0
        last = self.row_by_slot[-1]  # the row of the highest start
        end = self.block_start[last] + self.block_n_instrs[last] * INSTR_BYTES
        return end - self.code_base

    @property
    def n_static_branches(self) -> int:
        """Every basic block ends in exactly one branch."""
        return self.n_blocks

    def block_at(self, pc: int) -> StaticBlock:
        row = self.row_of(pc)
        if row < 0:
            raise WorkloadError(f"no basic block starts at {pc:#x}")
        return self.block(row)

    def branches_in_cache_block(self, cache_block: int) -> list[StaticBlock]:
        """Blocks whose terminating branch lies in ``cache_block``, by branch pc."""
        return [self.block(row) for row in self.branch_rows(cache_block)]

    def function_of(self, func_id: int) -> Function:
        """Function number ``func_id`` (its position), freshly built."""
        lo, hi = self.func_block_offsets[func_id], self.func_block_offsets[func_id + 1]
        return Function(
            self.func_id[func_id],
            self.function_names[func_id],
            self.func_entry[func_id],
            self.func_layer[func_id],
            tuple(self.func_block_starts[lo:hi]),
        )

    def validate(self) -> None:
        """Check structural invariants; raises :class:`WorkloadError`.

        Invariants: positive block sizes; fall-throughs of conditional
        branches and calls land on block starts; direct targets land on
        block starts; calls target function entries; indirect branches
        carry a non-empty, positively-weighted target set that includes
        the primary target. One pass over the blocks, then one over the
        functions.
        """
        kinds = self.block_kind
        starts = set(self.block_start)
        if self.entry not in starts:
            raise WorkloadError(f"entry {self.entry:#x} is not a block start")
        func_entries = set(self.func_entry)
        cond = BranchKind.COND
        for row, (start, n_instrs, kind, target, bias, loop_mean, corr_src) in enumerate(
            zip(
                self.block_start, self.block_n_instrs, kinds, self.block_target,
                self.block_bias, self.block_loop_mean, self.block_corr_src,
            )
        ):
            branch_pc = start + (n_instrs - 1) * INSTR_BYTES
            if n_instrs < 1:
                raise WorkloadError(f"block {start:#x} has no instructions")
            if kind in _FALLS_THROUGH:
                fallthrough = start + n_instrs * INSTR_BYTES
                if fallthrough not in starts:
                    raise WorkloadError(
                        f"block {start:#x} ({BranchKind(kind).name}) falls through "
                        f"to {fallthrough:#x}, which is not a block start"
                    )
            if kind in _DIRECT and target not in starts:
                raise WorkloadError(
                    f"block {start:#x} targets {target:#x}, which is not a block start"
                )
            if kind == BranchKind.CALL:
                if target not in func_entries:
                    raise WorkloadError(
                        f"call at {branch_pc:#x} targets non-entry {target:#x}"
                    )
            elif kind in INDIRECT_KINDS:
                indirect = self.indirect_targets(row)
                if not indirect:
                    raise WorkloadError(
                        f"indirect branch at {branch_pc:#x} has no target set"
                    )
                for tgt, weight in indirect:
                    if tgt not in starts:
                        raise WorkloadError(
                            f"indirect target {tgt:#x} is not a block start"
                        )
                    if weight <= 0:
                        raise WorkloadError(
                            f"indirect target {tgt:#x} has non-positive weight"
                        )
                if target not in {tgt for tgt, _ in indirect}:
                    raise WorkloadError(
                        f"indirect branch at {branch_pc:#x}: primary target "
                        "not in the target set"
                    )
            cond_nonloop = kind == cond and not (loop_mean > 0)
            if cond_nonloop and not (0.0 <= bias <= 1.0):
                raise WorkloadError(f"conditional at {branch_pc:#x} has bias {bias}")
            if corr_src:
                if not cond_nonloop:
                    raise WorkloadError(
                        f"correlation on non-conditional branch at {branch_pc:#x}"
                    )
                src = self.row_of(corr_src)
                if src < 0 or kinds[src] != cond:
                    raise WorkloadError(
                        f"correlated branch at {branch_pc:#x} has a "
                        f"non-conditional source {corr_src:#x}"
                    )
        for func in self.functions:
            for start in func.block_starts:
                if start not in starts:
                    raise WorkloadError(
                        f"function {func.name} lists missing block {start:#x}"
                    )
            if func.entry != func.block_starts[0]:
                raise WorkloadError(f"function {func.name} entry is not its first block")


class BlockView(Mapping[int, StaticBlock]):
    """Read-only ``start -> StaticBlock`` view of a graph's rows.

    Each read builds the block from the columns; nothing is cached, so
    the view costs no resident memory. Iteration is in row order.
    """

    __slots__ = ("_cfg",)

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self._cfg = cfg

    def __getitem__(self, pc: int) -> StaticBlock:
        row = self._cfg.row_of(pc)
        if row < 0:
            raise KeyError(pc)
        return self._cfg.block(row)

    def __contains__(self, pc: object) -> bool:
        return isinstance(pc, int) and self._cfg.row_of(pc) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._cfg.block_start)

    def __len__(self) -> int:
        return len(self._cfg.block_start)
