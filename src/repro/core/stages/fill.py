"""Fill-arrival stage: completed L1-I fills install at the cycle start."""

from __future__ import annotations

from ...frontend.predecode import predecode_block
from .state import PipelineState, StageContext


class FillArrival:
    """Drain this cycle's completed fills into the prefetch buffer / L1-I."""

    name = "fill"

    __slots__ = ("mem", "_drain")

    def __init__(self, ctx: StageContext):
        self.mem = ctx.mem
        self._drain = ctx.mem.drain_arrivals  # prebound: called every cycle

    def tick(self, state: PipelineState, cycle: int) -> None:
        self._drain(cycle)

    def counters(self) -> dict[str, int]:
        return {}


class PredecodeFillArrival(FillArrival):
    """Confluence's fill variant: predecode every arriving block into the BTB.

    The predecoder reads the block's branch facts (kind, size, direct
    target) straight from the instruction bytes — paper Section IV-A's
    metadata-free bulk prefill. The composer substitutes the plain
    :class:`FillArrival` under ``perfect_btb`` (nothing to prefill).
    """

    name = "fill+predecode"

    __slots__ = ("btb", "cfg", "_predecode")

    def __init__(self, ctx: StageContext):
        super().__init__(ctx)
        self.btb = ctx.btb
        self.cfg = ctx.workload.cfg
        # Pure function of (cfg, block), bound at construction so a
        # per-engine wrapper (tracing, timing) can stand in for it.
        self._predecode = predecode_block

    def tick(self, state: PipelineState, cycle: int) -> None:
        arrived = self.mem.drain_arrivals(cycle)
        if arrived:
            btb = self.btb
            cfg = self.cfg
            predecode = self._predecode
            for block in arrived:
                for pc, entry in predecode(cfg, block):
                    btb.insert(pc, entry)
