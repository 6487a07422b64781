"""Prefetch-issue stage: one L1-I probe per cycle through the priority mux.

The L1-I has one probe port, arbitrated demand-first (paper Fig. 6):
demand fetch > BTB miss probe > prefetch probe. Demand misses are charged
inside :class:`~repro.core.stages.fetch.FetchUnit`; this stage carries the
lower-priority traffic, in two mechanism-specific flavours:

* :class:`FTQScanPrefetchIssue` — the decoupled (FDIP/Boomerang) engine.
  It scans each entry the BPU pushed into the deep FTQ exactly once
  (watermarked against ``ftq.pushed``), expands it into cache blocks,
  dedups against a small recent-probe window and probes one queued block
  per cycle. Boomerang's sequential throttle blocks pre-empt the probe
  port, and an in-flight BTB miss probe occupies it entirely.
* :class:`StreamPrefetchIssue` — the event-driven prefetchers (next-line,
  DIP, PIF, SHIFT, Confluence's SHIFT): ask the prefetcher model for its
  next block and probe it.

The coupled no-prefetch baseline composes neither — its probe port stays
idle.
"""

from __future__ import annotations

from .state import PipelineState, StageContext


class FTQScanPrefetchIssue:
    """FTQ-scanning prefetch engine of the decoupled front ends."""

    name = "prefetch:ftq-scan"

    #: Probes remembered for dedup before re-probing the same block.
    RECENT_WINDOW = 128
    #: Issued-probe prefix length that triggers queue compaction.
    COMPACT_AT = 512

    __slots__ = ("ftq", "_ftq_entries", "_probe", "_scan_mark", "_recent")

    def __init__(self, ctx: StageContext):
        self.ftq = ctx.ftq
        self._ftq_entries = ctx.ftq.entries
        self._probe = ctx.mem.prefetch_probe  # prebound: hot path
        self._scan_mark = 0
        self._recent = {}

    def tick(self, state: PipelineState, cycle: int) -> None:
        # Scan FTQ entries pushed since the last tick into the probe queue,
        # oldest first. The BPU pushes at most one entry per cycle and the
        # engine ticks this stage on every cycle that follows a push, so
        # n_new is 0 or 1; the index loop keeps a hypothetical multi-push
        # BPU correct without allocating.
        ftq = self.ftq
        n_new = ftq.pushed - self._scan_mark
        if n_new:
            self._scan_mark = ftq.pushed
            recent = self._recent
            probe_q = state.probe_q
            ftq_entries = self._ftq_entries
            idx = -n_new
            while idx < 0:
                entry = ftq_entries[idx]
                idx += 1
                start = entry[0]
                first = start >> 6
                last = (start + (entry[1] - 1) * 4) >> 6
                for b in range(first, last + 1):
                    if b not in recent:
                        recent[b] = None
                        if len(recent) > self.RECENT_WINDOW:
                            del recent[next(iter(recent))]
                        probe_q.append(b)
        # Issue one probe through the mux.
        throttle_q = state.throttle_q
        if throttle_q:
            self._probe(throttle_q.popleft(), cycle)
        elif state.bmiss is not None:
            pass  # probe port carries the BTB miss probe traffic
        elif state.probe_pos < len(state.probe_q):
            self._probe(state.probe_q[state.probe_pos], cycle)
            state.probe_pos += 1
            if state.probe_pos > self.COMPACT_AT:
                state.probe_q = state.probe_q[state.probe_pos :]
                state.probe_pos = 0

    def counters(self) -> dict[str, int]:
        return {}


class StreamPrefetchIssue:
    """Probe port driven by an event-driven prefetcher model."""

    name = "prefetch:stream"

    __slots__ = ("_next_prefetch", "_probe")

    def __init__(self, ctx: StageContext):
        self._next_prefetch = ctx.prefetcher.next_prefetch  # prebound: hot
        self._probe = ctx.mem.prefetch_probe

    def tick(self, state: PipelineState, cycle: int) -> None:
        block = self._next_prefetch(cycle)
        if block is not None:
            self._probe(block, cycle)

    def counters(self) -> dict[str, int]:
        return {}
