"""Simulation results: raw counters plus the paper's derived metrics."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..workloads.isa import EntryKind

if TYPE_CHECKING:
    from ..branch.btb import BasicBlockBTB, BTBPrefetchBuffer
    from ..frontend.ftq import FetchTargetQueue
    from ..memory.hierarchy import InstructionMemory


def aggregate_stage_counters(
    cycle: int,
    retired: int,
    stages: Iterable,
    btb: BasicBlockBTB,
    btb_buf: BTBPrefetchBuffer,
    ftq: FetchTargetQueue,
    mem: InstructionMemory,
) -> dict[str, float]:
    """Flatten per-stage counter namespaces into the engine's stats dict.

    Stage counters come first (in pipeline order), then the shared
    hardware blocks (BTB, BTB prefetch buffer, FTQ, memory hierarchy).
    The key set matches the pre-stage monolithic engine exactly, so
    experiments, analysis tables and the ``repro.runtime`` cache consume
    the same flat dict they always have.
    """
    counters: dict[str, float] = {
        "cycles": cycle,
        "retired_instrs": retired,
    }
    for stage in stages:
        counters.update(stage.counters())
    counters["btb_lookups"] = btb.lookups
    counters["btb_hits"] = btb.hits
    counters["btb_inserts"] = btb.inserts
    counters["btb_pfb_hits"] = btb_buf.hits
    counters["btb_pfb_inserts"] = btb_buf.inserts
    counters["ftq_pushes"] = ftq.pushed
    counters["ftq_flushes"] = ftq.flushes
    counters.update(mem.counters())
    return counters


@dataclass
class SimulationResult:
    """Counters and derived metrics of one simulation run.

    All counters cover the *measured* region only (post-warmup); the raw
    dict also carries ``warmup_*`` totals for diagnostics.
    """

    workload: str
    mechanism: str
    raw: dict[str, float] = field(default_factory=dict)

    # -- headline metrics -----------------------------------------------------

    @property
    def cycles(self) -> int:
        return int(self.raw.get("cycles", 0))

    @property
    def instructions(self) -> int:
        return int(self.raw.get("retired_instrs", 0))

    @property
    def ipc(self) -> float:
        cycles = self.raw.get("cycles", 0)
        return self.raw.get("retired_instrs", 0) / cycles if cycles else 0.0

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """IPC ratio vs. a baseline run of the same workload."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    # -- squashes (Figure 7) --------------------------------------------------

    @property
    def squashes_btb(self) -> int:
        return int(self.raw.get("squash_btb", 0))

    @property
    def squashes_mispredict(self) -> int:
        """Direction + target mispredict squashes (Figure 7's other bar)."""
        return int(self.raw.get("squash_cond", 0) + self.raw.get("squash_target", 0))

    @property
    def squashes_total(self) -> int:
        return self.squashes_btb + self.squashes_mispredict

    def per_kilo(self, count: float) -> float:
        instrs = self.raw.get("retired_instrs", 0)
        return 1000.0 * count / instrs if instrs else 0.0

    @property
    def btb_squashes_per_kilo(self) -> float:
        return self.per_kilo(self.squashes_btb)

    @property
    def mispredict_squashes_per_kilo(self) -> float:
        return self.per_kilo(self.squashes_mispredict)

    @property
    def squashes_per_kilo(self) -> float:
        return self.per_kilo(self.squashes_total)

    # -- front-end stalls (Figures 2, 5, 8) ------------------------------------

    @property
    def stall_cycles(self) -> int:
        """Correct-path fetch stall cycles due to L1-I misses."""
        return int(
            self.raw.get("stall_seq", 0)
            + self.raw.get("stall_cond", 0)
            + self.raw.get("stall_uncond", 0)
        )

    def stall_cycles_by_kind(self) -> dict[EntryKind, int]:
        return {
            EntryKind.SEQUENTIAL: int(self.raw.get("stall_seq", 0)),
            EntryKind.CONDITIONAL: int(self.raw.get("stall_cond", 0)),
            EntryKind.UNCONDITIONAL: int(self.raw.get("stall_uncond", 0)),
        }

    def coverage_over(self, baseline: "SimulationResult") -> float:
        """Fraction of the baseline's stall cycles this run eliminated."""
        base = baseline.stall_cycles
        if base <= 0:
            return 0.0
        return max(0.0, 1.0 - self.stall_cycles / base)

    # -- convenience ------------------------------------------------------------

    def summary_line(self) -> str:
        return (
            f"{self.workload:>10s} {self.mechanism:>10s} "
            f"IPC={self.ipc:5.3f} "
            f"squash/KI={self.squashes_per_kilo:6.2f} "
            f"(btb={self.btb_squashes_per_kilo:5.2f}) "
            f"stallcyc={self.stall_cycles}"
        )
