"""Mechanism registry and stage composer (paper Section V-A).

A mechanism is a *composition* of pipeline stages from
:mod:`repro.core.stages`: every mechanism shares the squash / retire /
decode / fetch spine and differs only in its fill, BPU and prefetch-issue
parts. :func:`compose_stages` assembles the per-cycle stage list the
engine ticks; see ``docs/architecture.md`` for the full mechanism → stage
composition table and the recipe for adding a new mechanism.

Coarse per-mechanism traits (decoupled? which prefetcher model? which BTB
prefill style?) remain queryable via :func:`traits_for`; they parameterize
both the composition below and the per-mechanism config defaults
(:func:`make_config` — Confluence's 16K-entry BTB upper bound, the shallow
FTQ modelling an ordinary coupled fetch buffer for non-decoupled front
ends).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..config import SimConfig
from ..errors import UnknownMechanismError
from ..prefetch import (
    DiscontinuityPrefetcher,
    InstructionPrefetcher,
    NextLinePrefetcher,
    PIFPrefetcher,
    SHIFTPrefetcher,
)
from .stages import (
    BPUStage,
    DecodeDispatch,
    FTQScanPrefetchIssue,
    FetchUnit,
    FillArrival,
    MissProbeBPU,
    PredecodeFillArrival,
    RetireUnit,
    SquashUnit,
    StageContext,
    StreamPrefetchIssue,
)

#: FTQ depth modelling a conventional (coupled) fetch buffer.
SHALLOW_FTQ_DEPTH = 4


@dataclass(frozen=True)
class MechanismTraits:
    """Engine-facing description of one mechanism."""

    name: str
    #: FDIP-style decoupled front end (deep FTQ + FTQ-scanning prefetch).
    decoupled: bool
    #: Demand/retire-stream prefetcher kind, if any.
    prefetcher: str | None
    #: BTB prefill style: None, "boomerang" (miss probes) or "confluence"
    #: (predecode every arriving block).
    btb_prefill: str | None


#: Mechanism name -> traits, in paper order for the main comparison
#: figures (7, 8, 9); :data:`MECHANISMS` is its key tuple.
_TRAITS: dict[str, MechanismTraits] = {
    "none": MechanismTraits("none", False, None, None),
    "next_line": MechanismTraits("next_line", False, "next_line", None),
    "dip": MechanismTraits("dip", False, "dip", None),
    "fdip": MechanismTraits("fdip", True, None, None),
    "pif": MechanismTraits("pif", False, "pif", None),
    "shift": MechanismTraits("shift", False, "shift", None),
    "confluence": MechanismTraits("confluence", False, "shift", "confluence"),
    "boomerang": MechanismTraits("boomerang", True, None, "boomerang"),
}

MECHANISMS: tuple[str, ...] = tuple(_TRAITS)

#: The subset plotted in Figures 7-9 (plus the no-prefetch baseline).
FIGURE_MECHANISMS: tuple[str, ...] = (
    "next_line",
    "dip",
    "fdip",
    "shift",
    "confluence",
    "boomerang",
)


def traits_for(mechanism: str) -> MechanismTraits:
    """Traits of ``mechanism``; raises for unknown names."""
    try:
        return _TRAITS[mechanism]
    except KeyError:
        raise UnknownMechanismError(mechanism, MECHANISMS) from None


def make_config(mechanism: str = "none", base: SimConfig | None = None, **overrides) -> SimConfig:
    """Build a :class:`SimConfig` for ``mechanism``.

    Applies the paper's per-mechanism defaults (Confluence's 16K-entry BTB
    upper bound, shallow FTQ for coupled front ends) on top of ``base``,
    then any keyword overrides (passed to ``dataclasses.replace``).
    """
    traits = traits_for(mechanism)
    cfg = base if base is not None else SimConfig()
    cfg = replace(cfg, mechanism=mechanism)
    if mechanism == "confluence" and "btb" not in overrides:
        cfg = cfg.with_btb_entries(cfg.prefetch.confluence_btb_entries)
    if not traits.decoupled and "core" not in overrides:
        core = replace(cfg.core, ftq_depth=SHALLOW_FTQ_DEPTH)
        cfg = replace(cfg, core=core)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def build_prefetcher(config: SimConfig, llc_round_trip: int) -> InstructionPrefetcher | None:
    """Instantiate the demand/retire-stream prefetcher for ``config``."""
    traits = traits_for(config.mechanism)
    pf = config.prefetch
    if traits.prefetcher is None:
        return None
    if traits.prefetcher == "next_line":
        return NextLinePrefetcher(degree=pf.next_line_degree)
    if traits.prefetcher == "dip":
        return DiscontinuityPrefetcher(
            table_entries=pf.dip_table_entries,
            next_line_degree=pf.next_line_degree,
        )
    if traits.prefetcher == "pif":
        return PIFPrefetcher(
            history_entries=pf.stream_history_entries,
            index_entries=pf.stream_index_entries,
            lookahead=pf.stream_lookahead,
        )
    if traits.prefetcher == "shift":
        return SHIFTPrefetcher(
            history_entries=pf.stream_history_entries,
            index_entries=pf.stream_index_entries,
            lookahead=pf.stream_lookahead,
            llc_round_trip=llc_round_trip,
        )
    raise UnknownMechanismError(traits.prefetcher, MECHANISMS)


# ---------------------------------------------------------------------------
# Stage composition
# ---------------------------------------------------------------------------


def _spine(ctx: StageContext) -> tuple:
    """The squash/retire/decode/fetch core every mechanism shares."""
    return (SquashUnit(ctx), RetireUnit(ctx), DecodeDispatch(ctx), FetchUnit(ctx))


def _fill(ctx: StageContext) -> FillArrival:
    """Plain fill arrivals (no BTB prefill on fill)."""
    return FillArrival(ctx)


def _predecode_fill(ctx: StageContext) -> FillArrival:
    """Confluence's predecode-on-fill; plain under a perfect BTB."""
    if ctx.config.perfect_btb:
        return FillArrival(ctx)
    return PredecodeFillArrival(ctx)


def _compose_coupled(ctx: StageContext) -> tuple:
    """Coupled front end: optional stream prefetcher, conventional BPU."""
    stages = _fill(ctx), *_spine(ctx), BPUStage(ctx)
    if ctx.prefetcher is not None:
        stages += (StreamPrefetchIssue(ctx),)
    return stages


def _compose_fdip(ctx: StageContext) -> tuple:
    """Decoupled front end: deep FTQ scanned by the prefetch engine."""
    return _fill(ctx), *_spine(ctx), BPUStage(ctx), FTQScanPrefetchIssue(ctx)


def _compose_confluence(ctx: StageContext) -> tuple:
    """SHIFT stream prefetch + bulk BTB prefill on every fill arrival."""
    return _predecode_fill(ctx), *_spine(ctx), BPUStage(ctx), StreamPrefetchIssue(ctx)


def _compose_boomerang(ctx: StageContext) -> tuple:
    """FDIP's decoupled engine + BTB-miss-probe BPU (the paper's design)."""
    return _fill(ctx), *_spine(ctx), MissProbeBPU(ctx), FTQScanPrefetchIssue(ctx)


#: mechanism name -> stage-list factory; the composition table in code.
STAGE_COMPOSERS: dict[str, Callable[[StageContext], tuple]] = {
    "none": _compose_coupled,
    "next_line": _compose_coupled,
    "dip": _compose_coupled,
    "fdip": _compose_fdip,
    "pif": _compose_coupled,
    "shift": _compose_coupled,
    "confluence": _compose_confluence,
    "boomerang": _compose_boomerang,
}


def compose_stages(ctx: StageContext) -> tuple:
    """Assemble the per-cycle stage list for ``ctx.config.mechanism``."""
    try:
        composer = STAGE_COMPOSERS[ctx.config.mechanism]
    except KeyError:
        raise UnknownMechanismError(ctx.config.mechanism, MECHANISMS) from None
    return composer(ctx)
