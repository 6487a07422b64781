"""Composable pipeline stages of the cycle-level front-end engine.

One simulated cycle is a fixed-order pass over a mechanism's stage list
(paper Fig. 6, top to bottom)::

    FillArrival      completed L1-I fills install (Confluence variant
                     predecodes arriving blocks into the BTB)
    SquashUnit       resolved mis-speculation flushes + redirects
    RetireUnit       ROB head drains; retire stream feeds PIF/SHIFT
    DecodeDispatch   decoded groups enter the ROB (LSQ backpressure)
    FetchUnit        FTQ head drains through the L1-I (demand port)
    BPUStage         one basic-block prediction (Boomerang variant
                     resolves BTB misses via predecode miss probes)
    *PrefetchIssue   one L1-I probe via the priority mux (FTQ-scan or
                     event-driven stream prefetcher; absent for "none")

Every stage implements ``tick(state, cycle)`` over the shared
:class:`PipelineState` and reports its own counters through
``counters()``. The engine calls a tick only on cycles its *gate* opens,
and each gate in :meth:`repro.core.engine.FrontEndEngine.run` mirrors the
early-out guard at the head of its tick — so a stage that changes what
its tick does when idle must change its gate with it. The fetch unit and
the BPU also implement ``idle(state, cycle, n)``, the counting their tick
does on ``n`` cycles where nothing moves; the engine calls it for the
idle runs it skips. Counters flatten
into the engine's stats dict through
:func:`repro.core.results.aggregate_stage_counters`. Mechanisms are
assembled from these parts by :func:`repro.core.mechanisms.compose_stages`
— adding a mechanism is a composition exercise, not engine surgery (see
``docs/architecture.md``).
"""

from .bpu import BPUStage, MissProbeBPU
from .decode import DecodeDispatch
from .fetch import FetchUnit
from .fill import FillArrival, PredecodeFillArrival
from .prefetch_issue import FTQScanPrefetchIssue, StreamPrefetchIssue
from .retire import RetireUnit
from .squash import SquashUnit
from .state import (
    CAUSE_BTB,
    CAUSE_COND,
    CAUSE_NONE,
    CAUSE_TARGET,
    PipelineState,
    StageContext,
)

__all__ = [
    "BPUStage",
    "CAUSE_BTB",
    "CAUSE_COND",
    "CAUSE_NONE",
    "CAUSE_TARGET",
    "DecodeDispatch",
    "FTQScanPrefetchIssue",
    "FetchUnit",
    "FillArrival",
    "MissProbeBPU",
    "PipelineState",
    "PredecodeFillArrival",
    "RetireUnit",
    "SquashUnit",
    "StageContext",
    "StreamPrefetchIssue",
]
