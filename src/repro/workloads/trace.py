"""Dynamic execution: walking a CFG into a deterministic basic-block trace.

The walker interprets the CFG with a call stack, per-branch loop counters,
Bernoulli conditional outcomes and sticky indirect-target selection — all
driven by a private seeded PRNG, so the same workload always produces the
same trace and every mechanism is evaluated on identical input.

Traces are stored **columnar**: five parallel ``array`` columns, each at
the narrowest fixed width its values need (:data:`COLUMN_SPECS`: a pc in
four bytes, a block size in two, the rest in one), instead of one Python
tuple per record. A record's next pc is not stored: it is the next
record's start, so the start column holds one more entry than the trace
has records — the pc the walk stopped at — and record ``i``'s next pc is
``start[i + 1]``. A full-scale trace is a few flat megabytes of C
integers rather than hundreds of megabytes of boxed tuples, the columns
serialize as raw bytes (the :mod:`~repro.workloads.tracestore` record
holds each column's buffer as-is), and forked pool workers share them
copy-on-write. The engine's hot per-prediction loop reads
``trace.columns[COL_KIND]`` etc. directly (indexed reads, no per-record
allocation); iterating a :class:`Trace` yields one six-field record tuple
at a time (``REC_*`` order, the next pc rebuilt from the starts) through
a C-level ``zip`` over the columns.

Generation is **streaming**: the walker emits records through a
:class:`TraceBuilder`, a bounded-memory emitter that buffers a small chunk
of records and transposes it into the columns, so peak memory during
generation no longer scales with one live tuple (plus six boxed ints) per
record.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from ..config import INSTR_BYTES
from ..errors import WorkloadError
from .cfg import ControlFlowGraph, StaticBlock
from .isa import BranchKind, EntryKind, block_of, blocks_spanned

#: Field indexes of one trace record tuple (what iterating a Trace yields).
REC_START = 0     #: basic-block start pc
REC_NINSTR = 1    #: instructions in the block
REC_KIND = 2      #: BranchKind of the terminating branch
REC_TAKEN = 3     #: 1 if the branch redirected the fetch stream
REC_NEXT = 4      #: start pc of the next basic block on the correct path
REC_ENTRY = 5     #: EntryKind — how control arrived at this block

#: One materialized trace record: (start, n_instrs, kind, taken, next_pc,
#: entry_kind). The storage is columnar; this is the view/emit row type.
TraceRecord = tuple[int, int, int, int, int, int]

#: Indexes of the stored columns in ``trace.columns``. Every record field
#: but the next pc is a column; the first four share their ``REC_*`` index.
COL_START = 0     #: one entry per record, then the pc the walk stopped at
COL_NINSTR = 1
COL_KIND = 2
COL_TAKEN = 3
COL_ENTRY = 4

#: (name, array typecode) per column, in ``COL_*`` order. Typecodes are
#: fixed-width on every supported platform ('I' = uint32, 'H' = uint16,
#: 'b' = int8), so serialized columns are portable across processes. A pc
#: fits 'I' because :class:`~repro.workloads.cfg.ControlFlowGraph` stores
#: its block starts at that width, and a block size fits 'H' likewise.
COLUMN_SPECS: tuple[tuple[str, str], ...] = (
    ("start", "I"),
    ("ninstr", "H"),
    ("kind", "b"),
    ("taken", "b"),
    ("entry", "b"),
)

#: Probability that an indirect branch repeats its previous target.
_INDIRECT_STICKINESS = 0.6

#: Call-stack depth cap; deeper calls are treated as tail calls.
_MAX_CALL_DEPTH = 64

#: Records buffered by :class:`TraceBuilder` before a transpose flush.
_EMIT_CHUNK = 16384

#: The record field each column holds, in ``COL_*`` order.
_FIELD_GETTERS = tuple(
    itemgetter(index) for index in (REC_START, REC_NINSTR, REC_KIND, REC_TAKEN, REC_ENTRY)
)


def _empty_columns() -> tuple[array, ...]:
    return tuple(array(typecode) for _, typecode in COLUMN_SPECS)


@dataclass
class Trace:
    """A dynamic basic-block trace over a static CFG (columnar storage).

    ``columns`` follow :data:`COLUMN_SPECS`; the start column holds one
    entry more than the others, the next pc of the last record.
    """

    cfg: ControlFlowGraph
    columns: tuple[array, ...]
    seed: int
    n_instrs: int = 0

    def __post_init__(self) -> None:
        if len(self.columns) != len(COLUMN_SPECS):
            raise WorkloadError(
                f"trace needs {len(COLUMN_SPECS)} columns, got {len(self.columns)}"
            )
        n = len(self.columns[COL_KIND])
        if not n:
            raise WorkloadError("trace holds no records")
        if len(self.columns[COL_START]) != n + 1 or any(
            len(col) != n for col in self.columns[COL_NINSTR:]
        ):
            raise WorkloadError(
                "trace columns need equal lengths plus the final next pc in start"
            )
        if not self.n_instrs:
            self.n_instrs = sum(self.columns[COL_NINSTR])

    def __len__(self) -> int:
        return len(self.columns[COL_KIND])

    def __iter__(self) -> Iterator[TraceRecord]:
        start, ninstr, kind, taken, entry = self.columns
        return zip(start, ninstr, kind, taken, islice(start, 1, None), entry)

    def column(self, index: int) -> array:
        """One raw column by its ``COL_*`` index."""
        return self.columns[index]

    def block(self, record: TraceRecord) -> StaticBlock:
        """The static block behind a record."""
        return self.cfg.block_at(record[REC_START])

    def summary(self) -> "TraceSummary":
        return summarize(self)


class TraceBuilder:
    """Bounded-memory streaming emitter appending into trace columns.

    Rows are buffered as plain tuples (one append per record — the cheap
    operation) and transposed into the ``array`` columns one chunk at a
    time, so at most :data:`_EMIT_CHUNK` boxed rows are ever live during
    generation regardless of trace length. A row's next pc is not
    stored, since it is the following row's start; the last row's closes
    the start column when the trace is built.
    """

    __slots__ = ("_columns", "_buffer", "_next")

    def __init__(self) -> None:
        self._columns = _empty_columns()
        self._buffer: list[TraceRecord] = []
        #: Next pc of the last flushed row.
        self._next: int | None = None

    def append(self, record: TraceRecord) -> None:
        """Emit one record row (``REC_*`` order)."""
        self._buffer.append(record)
        if len(self._buffer) >= _EMIT_CHUNK:
            self._flush()

    def extend(self, records: Iterable[tuple]) -> None:
        """Emit many record rows."""
        for record in records:
            self.append(record)

    def _flush(self) -> None:
        buffer = self._buffer
        if not buffer:
            return
        self._next = buffer[-1][REC_NEXT]
        for column, getter in zip(self._columns, _FIELD_GETTERS):
            column.extend(map(getter, buffer))
        buffer.clear()

    def __len__(self) -> int:
        return len(self._columns[COL_KIND]) + len(self._buffer)

    def build(self, cfg: ControlFlowGraph, seed: int, n_instrs: int = 0) -> Trace:
        """Finalize into an immutable-by-convention :class:`Trace`."""
        self._flush()
        if self._next is None:
            raise WorkloadError("trace holds no records")
        self._columns[COL_START].append(self._next)
        return Trace(cfg=cfg, columns=self._columns, seed=seed, n_instrs=n_instrs)


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate trace statistics used by calibration tests and reports."""

    n_records: int
    n_instrs: int
    avg_bb_instrs: float
    taken_rate: float
    cond_frac: float
    cond_taken_rate: float
    uncond_frac: float
    unique_basic_blocks: int
    unique_cache_blocks: int
    footprint_kb: float
    kind_counts: dict[int, int] = field(default_factory=dict)


def summarize(trace: Trace) -> TraceSummary:
    """Compute :class:`TraceSummary` for ``trace``.

    Columnar aggregation: whole-column passes (``sum``, ``array.count``,
    ``set``) replace the per-record Python loop wherever a field is
    consumed independently.
    """
    col_start, col_ninstr, col_kind, col_taken, _ = trace.columns
    n = len(trace)

    kind_counts: dict[int, int] = {}
    for kind in BranchKind:
        count = col_kind.count(int(kind))
        if count:
            kind_counts[int(kind)] = count
    taken = col_taken.count(1)  # the column is 0/1 by construction
    cond_kind = int(BranchKind.COND)
    cond = kind_counts.get(cond_kind, 0)
    cond_taken = sum(
        t for k, t in zip(col_kind, col_taken) if k == cond_kind
    )
    unique_bbs = set(islice(col_start, n))  # not the final next pc
    unique_blocks: set[int] = set()
    for start, n_instr in zip(col_start, col_ninstr):
        unique_blocks.update(blocks_spanned(start, n_instr))
    return TraceSummary(
        n_records=n,
        n_instrs=trace.n_instrs,
        avg_bb_instrs=trace.n_instrs / n,  # a Trace holds at least one record
        taken_rate=taken / n,
        cond_frac=cond / n,
        cond_taken_rate=cond_taken / cond if cond else 0.0,
        uncond_frac=(n - cond) / n,
        unique_basic_blocks=len(unique_bbs),
        unique_cache_blocks=len(unique_blocks),
        footprint_kb=len(unique_blocks) * 64 / 1024.0,
        kind_counts=kind_counts,
    )


def _draw_trips(rng: random.Random, mean: float) -> int:
    """Per-site loop trip count: exponential around the mean, clamped.

    Drawn once per loop branch and then *fixed* for the whole trace: real
    loops iterate over stable structure sizes, which is what makes their
    exits history-predictable (TAGE learns them; a bimodal counter cannot).
    The clamp keeps one unlucky draw from letting a single loop dominate a
    short trace.
    """
    trips = int(round(rng.expovariate(1.0 / mean)))
    return max(1, min(trips, int(3 * mean)))


#: Precompiled per-block walk row:
#: (kind, n_instrs, target, fallthrough, bias, loop_mean, corr_src,
#:  corr_invert, indirect_target_pcs, indirect_weights).
_WalkInfo = tuple

_NO_TARGETS: list = []


def _compile_walk_info(cfg: ControlFlowGraph) -> dict[int, _WalkInfo]:
    """One plain tuple per block, keyed by start, for the walk loop.

    The walker touches several fields of the current block per record;
    one dict lookup and a tuple unpack are cheaper than that many column
    reads, so one upfront O(blocks) pass over the CFG's columns pays for
    itself within the first few thousand records. Indirect target pools
    (rare) are pre-split into parallel (targets, weights) lists so each
    draw skips two list comprehensions.
    """
    offsets = cfg.indirect_offsets
    pool_targets = cfg.indirect_target
    pool_weights = cfg.indirect_weight
    info: dict[int, _WalkInfo] = {}
    for pc, n_instrs, kind, target, bias, loop_mean, corr_src, corr_invert, lo, hi in zip(
        cfg.block_start, cfg.block_n_instrs, cfg.block_kind, cfg.block_target,
        cfg.block_bias, cfg.block_loop_mean, cfg.block_corr_src,
        cfg.block_corr_invert, offsets, offsets[1:],
    ):
        if lo == hi:
            targets = weights = _NO_TARGETS
        else:
            targets = pool_targets[lo:hi].tolist()
            weights = pool_weights[lo:hi].tolist()
        info[pc] = (
            kind,
            n_instrs,
            target,
            pc + n_instrs * INSTR_BYTES,  # == StaticBlock.fallthrough
            bias,
            loop_mean,
            corr_src,
            corr_invert,
            targets,
            weights,
        )
    return info


def generate_trace(
    cfg: ControlFlowGraph,
    n_instrs: int,
    seed: int = 1,
) -> Trace:
    """Walk ``cfg`` from its entry until ``n_instrs`` instructions execute.

    The walk is deterministic for a given ``(cfg, n_instrs, seed)`` — and
    the PRNG draw sequence is pinned by the golden summary/engine fixtures,
    so representation changes here must never reorder draws. The trace
    always ends on a basic-block boundary, so the final instruction count
    can exceed ``n_instrs`` by at most one block.
    """
    if n_instrs <= 0:
        raise WorkloadError("trace length must be positive")
    rng = random.Random(seed)
    rnd = rng.random
    choices = rng.choices
    info = _compile_walk_info(cfg)

    builder = TraceBuilder()
    buffer = builder._buffer
    append = buffer.append
    flush = builder._flush

    stack: list[int] = []
    loop_remaining: dict[int, int] = {}
    loop_trips: dict[int, int] = {}
    sticky_target: dict[int, int] = {}
    last_outcome: dict[int, int] = {}

    COND = int(BranchKind.COND)
    JUMP = int(BranchKind.JUMP)
    CALL = int(BranchKind.CALL)
    RET = int(BranchKind.RET)
    IND_JUMP = int(BranchKind.IND_JUMP)
    IND_CALL = int(BranchKind.IND_CALL)
    SEQUENTIAL = int(EntryKind.SEQUENTIAL)
    CONDITIONAL = int(EntryKind.CONDITIONAL)
    UNCONDITIONAL = int(EntryKind.UNCONDITIONAL)

    pc = cfg.entry
    executed = 0
    entry_kind = SEQUENTIAL

    while executed < n_instrs:
        blk = info.get(pc)
        if blk is None:
            raise WorkloadError(f"walker reached non-block address {pc:#x}")
        (kind, blk_instrs, target, fallthrough, bias, loop_mean,
         corr_src, corr_invert, ind_targets, ind_weights) = blk
        taken = 1
        if kind == COND:
            if loop_mean > 0:
                remaining = loop_remaining.get(pc)
                if remaining is None:
                    remaining = loop_trips.get(pc)
                    if remaining is None:
                        remaining = _draw_trips(rng, loop_mean)
                        loop_trips[pc] = remaining
                if remaining > 0:
                    taken = 1
                    loop_remaining[pc] = remaining - 1
                else:
                    taken = 0
                    loop_remaining.pop(pc, None)
            elif corr_src:
                src_out = last_outcome.get(corr_src)
                if src_out is None:
                    taken = 1 if rnd() < 0.5 else 0
                else:
                    taken = src_out ^ 1 if corr_invert else src_out
            else:
                taken = 1 if rnd() < bias else 0
            last_outcome[pc] = taken
            next_pc = target if taken else fallthrough
        elif kind == JUMP:
            next_pc = target
        elif kind == CALL:
            next_pc = target
            if len(stack) < _MAX_CALL_DEPTH:
                stack.append(fallthrough)
        elif kind == IND_CALL or kind == IND_JUMP:
            previous = sticky_target.get(pc)
            if previous is not None and rnd() < _INDIRECT_STICKINESS:
                next_pc = previous
            else:
                next_pc = choices(ind_targets, weights=ind_weights, k=1)[0]
                sticky_target[pc] = next_pc
            if kind == IND_CALL and len(stack) < _MAX_CALL_DEPTH:
                stack.append(fallthrough)
        elif kind == RET:
            next_pc = stack.pop() if stack else cfg.entry
        else:  # pragma: no cover - exhaustive over BranchKind
            raise WorkloadError(f"unhandled branch kind {kind}")

        append((pc, blk_instrs, kind, taken, next_pc, entry_kind))
        if len(buffer) >= _EMIT_CHUNK:
            flush()
        executed += blk_instrs

        if not taken:
            entry_kind = SEQUENTIAL
        elif kind == COND:
            entry_kind = CONDITIONAL
        else:
            entry_kind = UNCONDITIONAL
        pc = next_pc

    return builder.build(cfg, seed, n_instrs=executed)


def taken_conditional_distances(trace: Trace) -> dict[int, int]:
    """Histogram of taken-conditional jump distances in cache blocks.

    This is the Figure 4 metric: for every dynamically taken conditional
    branch, the distance between the branch instruction's cache block and
    its target's cache block.
    """
    histogram: dict[int, int] = {}
    cond_kind = int(BranchKind.COND)
    for start, n_instrs, kind, taken, next_pc, _ in trace:
        if kind != cond_kind or not taken:
            continue
        branch_pc = start + (n_instrs - 1) * INSTR_BYTES
        distance = abs(block_of(next_pc) - block_of(branch_pc))
        histogram[distance] = histogram.get(distance, 0) + 1
    return histogram
