"""Synthetic workload profiles: the paper's six servers plus extra scenarios.

**Paper set** (Table II): the six server workloads every paper figure is
regenerated on. **Extended set**: four additional control-flow-delivery
scenarios (microservice RPC fan-out, bytecode-interpreter dispatch,
ML-inference serving, compiler pass pipeline) that sample branching
behaviours the server six under-represent — deep call stacks, hot indirect
jumps, long straight-line kernels, visitor-style dispatch. Experiments opt
into them via the ``REPRO_WORKLOAD_SET`` selector (``paper`` | ``extended``
| ``all``, see :func:`workload_set`); the paper-figure grids are pinned to
the paper set by default and never perturbed.

The paper evaluates Nutch (web search), Darwin (media streaming), Apache and
Zeus (SPECweb99 front ends), and Oracle and DB2 (TPC-C OLTP) on a full-system
simulator. Those binaries and traces are not available, so each workload is
replaced by a *profile*: a parameter vector for the synthetic program builder
that reproduces the statistical properties the mechanisms under study react
to (see "Workload profiles" in docs/architecture.md):

* instruction footprint ≫ L1-I capacity (scaled ~4x down from the paper's
  multi-MB footprints, preserving the over-subscription ratio against the
  32 KB L1-I and 2K-entry BTB),
* static branch count ≫ BTB capacity,
* short taken-conditional target distances (Figure 4: ~92% within 4 blocks),
* layered call graphs with far unconditional targets,
* recurring per-transaction call sequences (what temporal streaming exploits),
* a mix of strongly biased, moderately biased and loop branches.

OLTP profiles (Oracle, DB2) get the largest footprints, deepest stacks and
most indirect dispatch — the paper shows they are BTB-miss dominated (75% of
DB2's squashes). Streaming is the smallest, most sequential and most
predictable, matching its low opportunity in Figure 1 and its dislike of
speculative sequential prefetch in Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..envopts import resolve
from ..errors import ConfigError

#: Taken-conditional target distance distribution, in cache blocks.
#: Index i = probability of a jump of i blocks; the tail beyond the last
#: index is folded into the last bucket. Tuned so ~92% fall within 4 blocks.
_DEFAULT_COND_DIST = (0.33, 0.26, 0.17, 0.10, 0.06, 0.03, 0.02, 0.02, 0.01)


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameter vector consumed by :func:`repro.workloads.builder.build_cfg`."""

    name: str
    description: str
    #: Laid-out (and executed) code footprint in KB.
    code_kb: int
    #: Distinct transaction types dispatched by the driver loop.
    n_transaction_types: int
    #: Call-graph depth below the transaction handlers.
    layers: int
    #: Direct callees sampled per non-leaf function.
    call_fanout: int
    #: Fraction of call sites that dispatch indirectly.
    indirect_call_frac: float
    #: Maximum distinct targets of one indirect call site.
    indirect_fanout: int
    #: Mean basic-block length in instructions.
    avg_bb_instrs: float
    #: Terminator mix for non-final blocks (renormalized; RET ends functions).
    frac_cond: float
    frac_call: float
    frac_jump: float
    #: P(block distance) for forward taken-conditional targets.
    cond_dist_weights: tuple[float, ...] = _DEFAULT_COND_DIST
    #: Fraction of intra-function jumps built as indirect (switch-style)
    #: jumps. The default matches the historic builder constant; the
    #: interpreter profile raises it to model bytecode dispatch.
    indirect_jump_frac: float = 0.10
    #: Fraction of conditional branches that are loop back-edges.
    loop_frac: float = 0.10
    #: Mean loop trip count.
    loop_mean_trip: float = 7.0
    #: (weight, P(taken)) mixture for non-loop conditional branches.
    bias_mixture: tuple[tuple[float, float], ...] = (
        (0.57, 0.03),
        (0.35, 0.97),
        (0.05, 0.75),
        (0.03, 0.25),
    )
    #: Fraction of non-loop conditionals correlated with a recent earlier
    #: branch (history-predictable) instead of carrying a Bernoulli bias.
    corr_frac: float = 0.12
    #: Mean function body size in instructions.
    avg_fn_instrs: int = 150
    #: Deterministic build seed (trace walkers derive their own from this).
    seed: int = 1
    #: Default dynamic trace length in instructions.
    default_trace_instrs: int = 400_000
    #: Fraction of the trace used to warm structures before measuring.
    warmup_frac: float = 0.2

    def __post_init__(self) -> None:
        if self.code_kb <= 0:
            raise ConfigError("code footprint must be positive")
        if self.n_transaction_types < 1:
            raise ConfigError("need at least one transaction type")
        if self.layers < 2:
            raise ConfigError("need at least two call-graph layers")
        if not math.isclose(sum(self.cond_dist_weights), 1.0, abs_tol=1e-6):
            raise ConfigError("conditional distance weights must sum to 1")
        if not math.isclose(sum(w for w, _ in self.bias_mixture), 1.0, abs_tol=1e-6):
            raise ConfigError("bias mixture weights must sum to 1")
        mix_ok = all(0.0 <= p <= 1.0 for _, p in self.bias_mixture)
        if not mix_ok:
            raise ConfigError("bias mixture probabilities must lie in [0, 1]")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup fraction must lie in [0, 1)")
        if not 0.0 <= self.indirect_jump_frac <= 1.0:
            raise ConfigError("indirect jump fraction must lie in [0, 1]")

    def scaled(self, factor: float) -> "WorkloadProfile":
        """Shrink (or grow) footprint and trace length together.

        Used by fast test/benchmark configurations: scaling both preserves
        the re-reference behaviour that the mechanisms react to.
        """
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return replace(
            self,
            code_kb=max(16, int(self.code_kb * factor)),
            default_trace_instrs=max(20_000, int(self.default_trace_instrs * factor)),
        )

    @property
    def expected_taken_cond_rate(self) -> float:
        """Aggregate P(taken) of non-loop conditionals implied by the mixture."""
        return sum(w * p for w, p in self.bias_mixture)

    @property
    def est_static_branches(self) -> int:
        """Rough static branch-site count implied by the footprint.

        One terminator per basic block over the laid-out footprint
        (4-byte instructions). A summary statistic for the analytic
        model (:mod:`repro.analytic`), not a promise about the built
        CFG — only its *ordering* across profiles and scales matters.
        """
        blocks = (self.code_kb * 1024) / (4.0 * self.avg_bb_instrs)
        return max(1, int(blocks))

    def btb_pressure(self, btb_entries: int) -> float:
        """Dimensionless BTB over-subscription: ``log2(1 + sites/entries)``.

        The feature the analytic model's capacity terms are linear in:
        ~0 when the BTB swallows the branch working set, growing
        logarithmically as the working set over-subscribes it — matching
        the diminishing-returns shape of the paper's Figure 5 sweep.
        """
        return math.log2(1.0 + self.est_static_branches / max(1, btb_entries))


NUTCH = WorkloadProfile(
    name="nutch",
    description="Web search (Apache Nutch): mid-size footprint, layered index lookups",
    code_kb=352,
    n_transaction_types=4,
    layers=4,
    call_fanout=10,
    indirect_call_frac=0.06,
    indirect_fanout=4,
    avg_bb_instrs=5.6,
    frac_cond=0.56,
    frac_call=0.28,
    frac_jump=0.16,
    loop_frac=0.10,
    loop_mean_trip=7.0,
    avg_fn_instrs=200,
    seed=101,
    default_trace_instrs=400_000,
)

STREAMING = WorkloadProfile(
    name="streaming",
    description="Media streaming (Darwin): small hot loop, highly sequential",
    code_kb=224,
    n_transaction_types=3,
    layers=4,
    call_fanout=8,
    indirect_call_frac=0.04,
    indirect_fanout=3,
    avg_bb_instrs=7.4,
    frac_cond=0.52,
    frac_call=0.24,
    frac_jump=0.24,
    loop_frac=0.14,
    loop_mean_trip=9.0,
    avg_fn_instrs=200,
    bias_mixture=((0.58, 0.02), (0.34, 0.98), (0.05, 0.80), (0.03, 0.25)),
    corr_frac=0.10,
    seed=102,
    default_trace_instrs=400_000,
)

APACHE = WorkloadProfile(
    name="apache",
    description="Web front end (Apache/SPECweb99): CGI layers, many handlers",
    code_kb=384,
    n_transaction_types=5,
    layers=4,
    call_fanout=10,
    indirect_call_frac=0.07,
    indirect_fanout=4,
    avg_bb_instrs=5.4,
    frac_cond=0.57,
    frac_call=0.29,
    frac_jump=0.14,
    loop_frac=0.09,
    loop_mean_trip=6.0,
    avg_fn_instrs=200,
    seed=103,
    default_trace_instrs=400_000,
)

ZEUS = WorkloadProfile(
    name="zeus",
    description="Web front end (Zeus/SPECweb99): event-driven server",
    code_kb=352,
    n_transaction_types=5,
    layers=4,
    call_fanout=10,
    indirect_call_frac=0.08,
    indirect_fanout=4,
    avg_bb_instrs=5.2,
    frac_cond=0.60,
    frac_call=0.26,
    frac_jump=0.14,
    loop_frac=0.09,
    loop_mean_trip=6.0,
    avg_fn_instrs=200,
    seed=104,
    default_trace_instrs=400_000,
)

ORACLE = WorkloadProfile(
    name="oracle",
    description="OLTP (Oracle/TPC-C): deep stack, large branch working set",
    code_kb=512,
    n_transaction_types=7,
    layers=5,
    call_fanout=12,
    indirect_call_frac=0.11,
    indirect_fanout=5,
    avg_bb_instrs=4.9,
    frac_cond=0.66,
    frac_call=0.22,
    frac_jump=0.12,
    loop_frac=0.08,
    loop_mean_trip=5.0,
    bias_mixture=((0.56, 0.02), (0.38, 0.98), (0.03, 0.72), (0.03, 0.28)),
    corr_frac=0.12,
    avg_fn_instrs=210,
    seed=105,
    default_trace_instrs=480_000,
)

DB2 = WorkloadProfile(
    name="db2",
    description="OLTP (IBM DB2/TPC-C): largest branch footprint, BTB-miss bound",
    code_kb=576,
    n_transaction_types=8,
    layers=5,
    call_fanout=12,
    indirect_call_frac=0.12,
    indirect_fanout=6,
    avg_bb_instrs=4.7,
    frac_cond=0.67,
    frac_call=0.22,
    frac_jump=0.11,
    loop_frac=0.07,
    loop_mean_trip=5.0,
    bias_mixture=((0.56, 0.02), (0.38, 0.98), (0.03, 0.72), (0.03, 0.28)),
    corr_frac=0.12,
    avg_fn_instrs=210,
    seed=106,
    default_trace_instrs=480_000,
)

# ---------------------------------------------------------------------------
# Extended scenario profiles (not part of the paper's Table II grid)
# ---------------------------------------------------------------------------

MICRORPC = WorkloadProfile(
    name="microrpc",
    description="Microservice RPC fan-out: deep call chains across small functions",
    code_kb=448,
    n_transaction_types=6,
    layers=7,
    call_fanout=14,
    indirect_call_frac=0.10,
    indirect_fanout=5,
    avg_bb_instrs=5.0,
    frac_cond=0.58,
    frac_call=0.30,
    frac_jump=0.12,
    loop_frac=0.07,
    loop_mean_trip=5.0,
    bias_mixture=((0.55, 0.03), (0.37, 0.97), (0.05, 0.75), (0.03, 0.25)),
    corr_frac=0.12,
    #: Small per-service functions -> frames pile up seven layers deep,
    #: stressing the RAS and spreading call/return targets over a large
    #: footprint (BTB pressure without OLTP's indirect density).
    avg_fn_instrs=130,
    seed=107,
    default_trace_instrs=440_000,
)

INTERP = WorkloadProfile(
    name="interp",
    description="Bytecode interpreter: hot dispatch loop, dense indirect jumps",
    code_kb=192,
    n_transaction_types=3,
    layers=3,
    call_fanout=6,
    indirect_call_frac=0.05,
    indirect_fanout=8,
    avg_bb_instrs=4.2,
    frac_cond=0.44,
    frac_call=0.10,
    #: A large jump share, a third of it indirect with wide fan-out — the
    #: switch-on-opcode dispatch that defeats a BTB's single stored target.
    frac_jump=0.46,
    indirect_jump_frac=0.30,
    loop_frac=0.16,
    loop_mean_trip=12.0,
    bias_mixture=((0.50, 0.04), (0.40, 0.96), (0.06, 0.70), (0.04, 0.30)),
    corr_frac=0.10,
    avg_fn_instrs=180,
    seed=108,
    default_trace_instrs=400_000,
)

MLSERVE = WorkloadProfile(
    name="mlserve",
    description="ML inference serving: large straight-line kernels, long loops",
    code_kb=288,
    n_transaction_types=4,
    layers=4,
    call_fanout=7,
    indirect_call_frac=0.05,
    indirect_fanout=4,
    #: Long basic blocks and high-trip tiled loops: fetch is dominated by
    #: sequential runs, so this profile probes the *low*-opportunity end
    #: (like streaming, but with an even heavier sequential bias) where
    #: speculative prefetch can only pollute.
    avg_bb_instrs=14.0,
    frac_cond=0.40,
    frac_call=0.22,
    frac_jump=0.38,
    loop_frac=0.22,
    loop_mean_trip=18.0,
    bias_mixture=((0.30, 0.02), (0.62, 0.98), (0.05, 0.85), (0.03, 0.20)),
    corr_frac=0.06,
    avg_fn_instrs=260,
    seed=109,
    default_trace_instrs=420_000,
)

COMPILERPASS = WorkloadProfile(
    name="compilerpass",
    description="Compiler pass pipeline: IR visitors over the largest footprint",
    code_kb=640,
    n_transaction_types=9,
    layers=6,
    call_fanout=11,
    #: Visitor-style dispatch (indirect calls keyed on node kind) over a
    #: branch working set even larger than DB2's: the BTB-capacity-bound
    #: regime the paper's Figure 5 sweeps, pushed further.
    indirect_call_frac=0.13,
    indirect_fanout=6,
    avg_bb_instrs=4.6,
    frac_cond=0.64,
    frac_call=0.24,
    frac_jump=0.12,
    loop_frac=0.09,
    loop_mean_trip=6.0,
    bias_mixture=((0.52, 0.03), (0.38, 0.97), (0.06, 0.70), (0.04, 0.30)),
    corr_frac=0.14,
    avg_fn_instrs=190,
    seed=110,
    default_trace_instrs=480_000,
)


#: Paper order (Figures 1, 3, 7-11) — the default experiment grid.
ALL_PROFILES: tuple[WorkloadProfile, ...] = (NUTCH, STREAMING, APACHE, ZEUS, ORACLE, DB2)

#: The four extra control-flow-delivery scenarios.
EXTENDED_PROFILES: tuple[WorkloadProfile, ...] = (MICRORPC, INTERP, MLSERVE, COMPILERPASS)

#: Named profile sets selectable via ``REPRO_WORKLOAD_SET``.
PROFILE_SETS: dict[str, tuple[WorkloadProfile, ...]] = {
    "paper": ALL_PROFILES,
    "extended": EXTENDED_PROFILES,
    "all": ALL_PROFILES + EXTENDED_PROFILES,
}

_BY_NAME = {p.name: p for p in ALL_PROFILES + EXTENDED_PROFILES}


def workload_set(name: str | None = None) -> tuple[WorkloadProfile, ...]:
    """Resolve a profile set by argument, ``REPRO_WORKLOAD_SET``, or default.

    The default is the paper set, so figure grids only change when a run
    explicitly opts in (mirrors how ``REPRO_SCALE`` selects sweep density).
    """
    return PROFILE_SETS[resolve("REPRO_WORKLOAD_SET", name)]


def get_profile(name: str) -> WorkloadProfile:
    """Look up a named profile (case-insensitive; searches every set)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ConfigError(f"unknown workload {name!r}; known workloads: {known}") from None


def profile_names(set_name: str | None = None) -> tuple[str, ...]:
    """Names of a profile set (default: the paper set).

    Deliberately *not* environment-sensitive: callers treating this as
    "the paper grid" keep a stable answer regardless of
    ``REPRO_WORKLOAD_SET``; pass a set name (or use
    :func:`workload_set`) to opt into the extended scenarios.
    """
    profiles = PROFILE_SETS["paper"] if set_name is None else workload_set(set_name)
    return tuple(p.name for p in profiles)
