"""Synthetic server-program builder.

Turns a :class:`~repro.workloads.profiles.WorkloadProfile` into a concrete
:class:`~repro.workloads.cfg.ControlFlowGraph`:

* a **driver** function that loops forever, dispatching transactions through
  an indirect call (the service-dispatch pattern of server stacks),
* **transaction handlers** (layer 1), one per transaction type, whose direct
  call chains descend through **service layers** down to **leaf helpers**,
* function bodies made of basic blocks with profile-controlled sizes,
  terminator mixes, short forward conditional targets (Figure 4), loop
  back-edges, intra-function jumps and indirect dispatch.

Everything is derived from ``profile.seed`` via a private PRNG, so a given
profile always builds the same program byte-for-byte.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TypeVar

from ..config import INSTR_BYTES
from ..errors import WorkloadError
from .cfg import ControlFlowGraph, Function, cfg_arrays
from .isa import BranchKind, block_of
from .profiles import WorkloadProfile

#: Functions are aligned like a typical linker would (4 instructions).
_FUNC_ALIGN = 16

#: Largest basic block the builder emits, in instructions.
_MAX_BB_INSTRS = 24

#: Terminator kinds of a function's non-final blocks, in weight order.
_MIX_KINDS = (BranchKind.COND, BranchKind.CALL, BranchKind.JUMP)

_T = TypeVar("_T")


@dataclass
class _FunctionPlan:
    """Mutable scratch state for one function while the CFG is assembled."""

    func_id: int
    name: str
    layer: int
    bb_sizes: list[int]
    bb_kinds: list[BranchKind]
    callees: list[int] = field(default_factory=list)
    start: int = 0
    bb_starts: list[int] = field(default_factory=list)


def _zipf_weights(n: int, s: float = 0.8) -> list[float]:
    """Zipf-like popularity weights for ``n`` ranked items."""
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def _cum_weights(weights: Iterable[float]) -> list[float]:
    """Cumulative table for :func:`_weighted_pick`.

    Rejects the weight vectors :meth:`random.Random.choices` rejects: an
    empty one, or one whose total is not positive and finite.
    """
    cum = list(accumulate(weights))
    if not (cum and cum[-1] > 0.0 and math.isfinite(cum[-1])):
        raise WorkloadError(f"weights must have a positive finite total, got {cum}")
    return cum


def _weighted_pick(rng: random.Random, pop: Sequence[_T], cum: list[float]) -> _T:
    """``rng.choices(pop, weights=w, k=1)[0]`` where ``cum = _cum_weights(w)``.

    This is CPython's ``choices`` algorithm, one ``rng.random()`` draw and
    a bisect, so it returns the same element and leaves the PRNG in the
    same state; it just skips rebuilding the table and the per-call checks.
    """
    return pop[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]


class _DrawTables:
    """The cumulative-weight tables of one :func:`build_cfg` call.

    Built once per build, so a weighted draw never rebuilds its weights.
    """

    def __init__(self, profile: WorkloadProfile):
        self.kinds_with_calls = _cum_weights(
            [profile.frac_cond, profile.frac_call, profile.frac_jump]
        )
        # Leaf functions cannot call; fold the call share into conditionals.
        self.kinds_leaf = _cum_weights(
            [profile.frac_cond + profile.frac_call, 0.0, profile.frac_jump]
        )
        self.cond_dists = range(len(profile.cond_dist_weights))
        self.cond_dist = _cum_weights(profile.cond_dist_weights)
        self.biases = tuple(p for _, p in profile.bias_mixture)
        self.bias = _cum_weights(w for w, _ in profile.bias_mixture)
        self._call_sites: dict[int, list[float]] = {}

    def call_site(self, n: int) -> list[float]:
        """Zipf(1.4) table over a direct call site's ``n`` candidate callees."""
        cum = self._call_sites.get(n)
        if cum is None:
            cum = self._call_sites[n] = _cum_weights(_zipf_weights(n, s=1.4))
        return cum


def _draw_bb_size(rng: random.Random, avg: float) -> int:
    """Basic-block length in instructions: lognormal-ish, clamped.

    The lognormal is mean-corrected (mu = -sigma^2/2) so the draw's mean is
    ``avg``. A minimum of 2 instructions keeps every block at least one body
    instruction plus its terminating branch.
    """
    sigma = 0.55
    raw = rng.lognormvariate(-sigma * sigma / 2.0, sigma) * avg
    return max(2, min(_MAX_BB_INSTRS, round(raw)))


def _layer_budgets(profile: WorkloadProfile, total_instrs: int) -> list[int]:
    """Instruction budget per call-graph layer (index 0 = handlers).

    Handlers are ordinary-sized functions (one per transaction type); the
    bulk of the code lives in the service and leaf layers below them. This
    keeps a single transaction short enough that the driver dispatches many
    of them per trace — the recurrence temporal-stream prefetchers feed on.
    """
    n_layers = profile.layers
    handler_budget = profile.n_transaction_types * profile.avg_fn_instrs
    handler_budget = min(handler_budget, total_instrs // 4)
    rest = total_instrs - handler_budget
    n_lower = n_layers - 1
    if n_lower <= 0:
        return [total_instrs]
    weights = [1.3] * max(0, n_lower - 1) + [1.0]
    scale = rest / sum(weights)
    return [handler_budget] + [max(1, int(w * scale)) for w in weights]


def _plan_functions(profile: WorkloadProfile, rng: random.Random) -> list[_FunctionPlan]:
    """Decide the function inventory: count, size and layer of every function."""
    total_instrs = profile.code_kb * 1024 // INSTR_BYTES
    budgets = _layer_budgets(profile, total_instrs)
    plans: list[_FunctionPlan] = []
    for layer_idx, budget in enumerate(budgets):
        layer = layer_idx + 1
        if layer == 1:
            count = profile.n_transaction_types
        else:
            count = max(2, round(budget / profile.avg_fn_instrs))
        # Split the layer budget into per-function sizes with some spread.
        raw = [max(0.25, rng.lognormvariate(0.0, 0.5)) for _ in range(count)]
        norm = budget / sum(raw)
        for i, share in enumerate(raw):
            fn_instrs = max(3 * 2, int(share * norm))
            n_bbs = max(3, round(fn_instrs / profile.avg_bb_instrs))
            sizes = [_draw_bb_size(rng, profile.avg_bb_instrs) for _ in range(n_bbs)]
            plans.append(
                _FunctionPlan(
                    func_id=-1,  # assigned after the driver is prepended
                    name=f"L{layer}_fn{i}",
                    layer=layer,
                    bb_sizes=sizes,
                    bb_kinds=[],
                )
            )
    return plans


def _assign_callees(
    profile: WorkloadProfile, rng: random.Random, plans: list[_FunctionPlan]
) -> None:
    """Wire the layered call graph.

    Handlers (layer 1) draw mostly from a private slice of layer 2 — that is
    what makes each transaction type a distinct, repeatable instruction
    stream — with a minority share of globally popular helpers. Deeper
    layers draw Zipf-popular callees from the next layer down.
    """
    by_layer: dict[int, list[_FunctionPlan]] = {}
    for plan in plans:
        by_layer.setdefault(plan.layer, []).append(plan)
    n_layers = profile.layers

    for layer in range(1, n_layers):
        callers = by_layer.get(layer, [])
        pool = by_layer.get(layer + 1, [])
        if not pool:
            continue
        # A small "popular helper" subset is shared across callers (memcpy,
        # logging, locking); the rest of each caller's callees are spread
        # uniformly so the call graph fans out over the whole next layer.
        popular = pool[: max(2, len(pool) // 10)]
        if layer == 1:
            groups = _partition(pool, len(callers))
        for idx, caller in enumerate(callers):
            chosen: list[int] = []
            want = min(profile.call_fanout, len(pool))
            if layer == 1 and groups[idx]:
                private = groups[idx]
                take = min(len(private), max(1, int(round(want * 0.75))))
                chosen.extend(p.func_id for p in rng.sample(private, take))
            n_popular = max(1, want // 4)
            for pick in rng.sample(popular, min(n_popular, len(popular))):
                if pick.func_id not in chosen and len(chosen) < want:
                    chosen.append(pick.func_id)
            spread = [p for p in pool if p.func_id not in chosen]
            rng.shuffle(spread)
            for pick in spread:
                if len(chosen) >= want:
                    break
                chosen.append(pick.func_id)
            caller.callees = chosen


def _partition(items: list, n_groups: int) -> list[list]:
    """Split ``items`` into ``n_groups`` near-equal contiguous groups."""
    if n_groups <= 0:
        return []
    size = max(1, len(items) // n_groups)
    groups = [items[i * size : (i + 1) * size] for i in range(n_groups)]
    # Fold any remainder into the last group.
    tail = items[n_groups * size :]
    if tail and groups:
        groups[-1] = groups[-1] + tail
    return groups


def _assign_kinds(tables: _DrawTables, rng: random.Random, plan: _FunctionPlan) -> None:
    """Choose a terminating-branch kind for every block of one function."""
    n_bbs = len(plan.bb_sizes)
    has_callees = bool(plan.callees)
    cum = tables.kinds_with_calls if has_callees else tables.kinds_leaf
    kinds = [_weighted_pick(rng, _MIX_KINDS, cum) for _ in range(n_bbs - 1)]
    kinds.append(BranchKind.RET)

    if has_callees and BranchKind.CALL not in kinds[:-1] and n_bbs >= 2:
        kinds[rng.randrange(n_bbs - 1)] = BranchKind.CALL
    plan.bb_kinds = kinds


def _layout(
    plans: list[_FunctionPlan], rng: random.Random, base_addr: int
) -> None:
    """Place functions contiguously in a shuffled order; fix bb addresses.

    Shuffling decorrelates call-graph proximity from address proximity, so
    call/return targets land far from their call sites — the paper's "targets
    of unconditional branches tend to be far away" property.
    """
    order = list(plans)
    rng.shuffle(order)
    cursor = base_addr
    for plan in order:
        cursor = (cursor + _FUNC_ALIGN - 1) & ~(_FUNC_ALIGN - 1)
        plan.start = cursor
        plan.bb_starts = []
        for size in plan.bb_sizes:
            plan.bb_starts.append(cursor)
            cursor += size * INSTR_BYTES


def _pick_cond_target(
    profile: WorkloadProfile,
    tables: _DrawTables,
    rng: random.Random,
    plan: _FunctionPlan,
    index: int,
) -> int:
    """Forward conditional target: an if/else-style *join point*.

    The taken path skips a handful of basic blocks and rejoins the
    fall-through path, so both arms eventually cover the same code — the
    structure that gives real programs their short taken-branch distances
    (Figure 4) without starving path coverage. The skip count is derived
    from the profile's target-distance-in-cache-blocks distribution.
    """
    want_dist = _weighted_pick(rng, tables.cond_dists, tables.cond_dist)
    # Convert a distance in cache blocks into a number of skipped basic
    # blocks (16 instructions per block / mean block length).
    bbs_per_cache_block = 16.0 / profile.avg_bb_instrs
    skip = max(1, round(want_dist * bbs_per_cache_block + rng.random()))
    last = len(plan.bb_starts) - 1
    return plan.bb_starts[min(last, index + 1 + skip)]


def _pick_correlation_source(
    plan: _FunctionPlan, index: int, cond_indexes: list[int]
) -> int | None:
    """A recent, non-loop conditional earlier in the function, if any.

    Correlated branches re-test a condition checked a few blocks earlier,
    so the source must sit close enough that its outcome is still in the
    predictor's recent global history when the dependent branch executes.
    """
    if cond_indexes and index - cond_indexes[-1] <= 12:
        return cond_indexes[-1]
    return None


def _indirect_target_set(
    rng: random.Random,
    candidates: list[int],
    max_fanout: int,
) -> tuple[tuple[int, float], ...]:
    """Weighted target set for an indirect branch; heaviest target first."""
    fanout = min(len(candidates), max(2, max_fanout))
    picks = rng.sample(candidates, fanout)
    weights = _zipf_weights(fanout, s=0.5)
    return tuple(zip(picks, weights))


def _resolve_function(
    profile: WorkloadProfile,
    tables: _DrawTables,
    rng: random.Random,
    plan: _FunctionPlan,
    entries: dict[int, int],
    rows: list[tuple],
) -> None:
    """Append the block rows (StaticBlock field order) of one planned function."""
    last = len(plan.bb_starts) - 1
    callee_entries = [entries[fid] for fid in plan.callees]
    loop_indexes: set[int] = set()
    cond_indexes: list[int] = []
    for i, (start, size, kind) in enumerate(
        zip(plan.bb_starts, plan.bb_sizes, plan.bb_kinds)
    ):
        bias = 0.5
        loop_mean = 0.0
        indirect: tuple[tuple[int, float], ...] = ()
        target = 0
        corr_src = 0
        corr_invert = False

        if kind == BranchKind.COND:
            is_loop = i >= 1 and rng.random() < profile.loop_frac
            if is_loop:
                back = rng.randint(1, min(3, i))
                # Loops only wrap call-free, loop-free bodies (string/buffer
                # style leaf loops). A call or another loop inside the body
                # would multiply whole subtrees by the trip count and let one
                # transaction swallow the trace.
                body_kinds = plan.bb_kinds[i - back : i]
                if any(k in (BranchKind.CALL, BranchKind.IND_CALL) for k in body_kinds):
                    is_loop = False
                elif any(j in loop_indexes for j in range(i - back, i)):
                    is_loop = False
            if is_loop:
                loop_indexes.add(i)
                target = plan.bb_starts[i - back]
                loop_mean = max(1.0, profile.loop_mean_trip * rng.uniform(0.5, 2.0))
            else:
                target = _pick_cond_target(profile, tables, rng, plan, i)
                src_idx = _pick_correlation_source(plan, i, cond_indexes)
                if src_idx is not None and rng.random() < profile.corr_frac:
                    corr_src = plan.bb_starts[src_idx]
                    corr_invert = rng.random() < 0.5
                else:
                    bias = _weighted_pick(rng, tables.biases, tables.bias)
                cond_indexes.append(i)
        elif kind == BranchKind.JUMP:
            lo = min(i + 2, last)
            skip = min(last, lo + int(rng.expovariate(1 / 2.0)))
            target = plan.bb_starts[skip]
            if last > lo and rng.random() < profile.indirect_jump_frac:
                kind = BranchKind.IND_JUMP
                candidates = plan.bb_starts[lo : last + 1]
                indirect = _indirect_target_set(rng, candidates, 4)
                target = indirect[0][0]
        elif kind == BranchKind.CALL:
            # Each call site gets its own rotation of the function's callee
            # pool, so distinct sites favour distinct callees (spreading
            # coverage over the pool) while any one site remains strongly
            # repeatable (what temporal-stream prefetchers exploit).
            rot = i % len(callee_entries)
            site_pool = callee_entries[rot:] + callee_entries[:rot]
            if len(site_pool) >= 2 and rng.random() < profile.indirect_call_frac:
                kind = BranchKind.IND_CALL
                indirect = _indirect_target_set(
                    rng, site_pool, profile.indirect_fanout
                )
                target = indirect[0][0]
            else:
                target = _weighted_pick(rng, site_pool, tables.call_site(len(site_pool)))
        elif kind == BranchKind.RET:
            target = 0
        else:  # pragma: no cover - builder never plans other kinds
            raise WorkloadError(f"builder planned unexpected kind {kind}")

        rows.append((
            start, size, kind, target, plan.func_id,
            bias, loop_mean, indirect, corr_src, corr_invert,
        ))


def _build_driver(
    profile: WorkloadProfile,
    rng: random.Random,
    handler_entries: list[int],
    driver_plan: _FunctionPlan,
    rows: list[tuple],
) -> None:
    """The dispatch loop: IND_CALL to a handler, then jump back."""
    dispatch_start, loop_tail_start = driver_plan.bb_starts
    weights = _zipf_weights(len(handler_entries), s=0.25)
    targets = tuple(zip(handler_entries, weights))
    # Rows in StaticBlock field order: start, n_instrs, kind, target,
    # func_id, bias, loop_mean, indirect_targets, corr_src, corr_invert.
    rows.append((
        dispatch_start, driver_plan.bb_sizes[0], BranchKind.IND_CALL,
        targets[0][0], driver_plan.func_id, 0.5, 0.0, targets, 0, False,
    ))
    rows.append((
        loop_tail_start, driver_plan.bb_sizes[1], BranchKind.JUMP,
        dispatch_start, driver_plan.func_id, 0.5, 0.0, (), 0, False,
    ))


def build_cfg(profile: WorkloadProfile, base_addr: int = 0x40_0000) -> ControlFlowGraph:
    """Build the deterministic synthetic program for ``profile``.

    The returned CFG is validated; a :class:`~repro.errors.WorkloadError`
    here indicates a builder bug, not bad user input.
    """
    rng = random.Random(profile.seed)
    tables = _DrawTables(profile)

    plans = _plan_functions(profile, rng)
    driver_plan = _FunctionPlan(
        func_id=0,
        name="driver",
        layer=0,
        bb_sizes=[4, 3],
        bb_kinds=[BranchKind.IND_CALL, BranchKind.JUMP],
    )
    plans.insert(0, driver_plan)
    for func_id, plan in enumerate(plans):
        plan.func_id = func_id

    _assign_callees(profile, rng, plans[1:])
    for plan in plans[1:]:
        _assign_kinds(tables, rng, plan)

    _layout(plans, rng, base_addr)

    entries = {plan.func_id: plan.bb_starts[0] for plan in plans}
    rows: list[tuple] = []
    handler_entries = [entries[p.func_id] for p in plans if p.layer == 1]
    _build_driver(profile, rng, handler_entries, driver_plan, rows)
    for plan in plans[1:]:
        _resolve_function(profile, tables, rng, plan, entries, rows)

    functions = [
        Function(
            func_id=plan.func_id,
            name=plan.name,
            entry=plan.bb_starts[0],
            layer=plan.layer,
            block_starts=tuple(plan.bb_starts),
        )
        for plan in plans
    ]
    cfg = ControlFlowGraph.from_arrays(
        cfg_arrays(rows, functions),
        [f.name for f in functions],
        entry=driver_plan.bb_starts[0],
        name=profile.name,
    )
    cfg.validate()
    return cfg


def reachable_blocks(cfg: ControlFlowGraph) -> set[int]:
    """Block starts reachable from the CFG entry.

    Uses the standard "every call returns" approximation: a call block's
    successors are its callee entries *and* its fall-through. In the builder's
    output every function terminates, so this is exact.
    """
    seen: set[int] = set()
    work = [cfg.entry]
    while work:
        pc = work.pop()
        if pc in seen:
            continue
        seen.add(pc)
        blk = cfg.blocks.get(pc)
        if blk is None:
            continue
        if blk.kind == BranchKind.COND:
            succs = [blk.target, blk.fallthrough]
        elif blk.kind == BranchKind.JUMP:
            succs = [blk.target]
        elif blk.kind == BranchKind.IND_JUMP:
            succs = [t for t, _ in blk.indirect_targets]
        elif blk.kind == BranchKind.CALL:
            succs = [blk.target, blk.fallthrough]
        elif blk.kind == BranchKind.IND_CALL:
            succs = [t for t, _ in blk.indirect_targets] + [blk.fallthrough]
        else:  # RET: successor comes from the dynamic call stack
            succs = []
        for succ in succs:
            if succ not in seen:
                work.append(succ)
    return seen
