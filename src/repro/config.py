"""Configuration dataclasses for the simulated microarchitecture.

The default values reproduce Table I of the paper:

=====================  =====================================================
Processor              16-core, 2 GHz, 3-way OoO, 128 ROB
Branch predictor       TAGE (8 KB storage budget)
BTB                    2K-entry (basic-block oriented)
L1-I                   32 KB / 2-way, 2-cycle, 64-entry prefetch buffer
LLC                    shared NUCA, 512 KB/core, 16-way, 5-cycle bank access
Interconnect           4x4 2D mesh, 3 cycles/hop (avg. round trip ~30 cyc)
Memory latency         45 ns (90 cycles at 2 GHz)
=====================  =====================================================

Only one core is simulated in detail; the other 15 cores exist through the
NoC/LLC latency model (:attr:`MemoryParams.llc_round_trip`,
:mod:`repro.memory.noc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

#: Cache block (line) size in bytes, fixed across the hierarchy.
BLOCK_BYTES = 64

#: Fixed instruction size in bytes (SPARC-like RISC encoding).
INSTR_BYTES = 4

#: Instructions per cache block.
INSTRS_PER_BLOCK = BLOCK_BYTES // INSTR_BYTES


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one set-associative cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int = BLOCK_BYTES
    hit_latency: int = 2

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.assoc > 0, "associativity must be positive")
        _require(self.block_bytes > 0, "block size must be positive")
        _require(
            self.size_bytes % (self.assoc * self.block_bytes) == 0,
            "cache size must be a multiple of assoc * block size",
        )
        _require(_is_pow2(self.n_sets), "number of sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.block_bytes)

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes


@dataclass(frozen=True)
class NoCParams:
    """On-chip interconnect latency model.

    ``mesh`` models the paper's 4x4 2D mesh at 3 cycles/hop; ``crossbar``
    models the wide crossbar of Section VI-E2 with a fixed low round trip.
    """

    kind: str = "mesh"
    mesh_dim: int = 4
    cycles_per_hop: int = 3
    router_latency: int = 1
    #: Per-direction serialization/queueing overhead (packetization, bank
    #: conflicts); tuned so the 4x4 mesh averages the paper's ~30-cycle
    #: LLC round trip.
    serialization: int = 4
    crossbar_round_trip: int = 18

    def __post_init__(self) -> None:
        _require(self.kind in ("mesh", "crossbar"), f"unknown NoC kind {self.kind!r}")
        _require(self.mesh_dim >= 1, "mesh dimension must be >= 1")
        _require(self.cycles_per_hop >= 0, "cycles per hop must be >= 0")


@dataclass(frozen=True)
class BTBParams:
    """Basic-block-oriented branch target buffer geometry."""

    entries: int = 2048
    assoc: int = 4

    def __post_init__(self) -> None:
        _require(self.entries > 0, "BTB entries must be positive")
        _require(self.assoc > 0, "BTB associativity must be positive")
        _require(self.entries % self.assoc == 0, "BTB entries must divide by assoc")
        _require(_is_pow2(self.entries // self.assoc), "BTB sets must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class CoreParams:
    """Pipeline widths and latencies of the simulated core (3-way OoO)."""

    fetch_width: int = 3
    commit_width: int = 3
    rob_size: int = 128
    #: Cycles from fetch delivery to back-end entry (decode/rename depth).
    decode_latency: int = 4
    #: Cycles from back-end entry to branch resolution.
    resolve_latency: int = 14
    #: Bubble cycles on a front-end redirect (squash).
    redirect_bubble: int = 2
    ftq_depth: int = 32
    ras_entries: int = 32
    #: Data-side back-end model: this fraction of basic blocks stalls retire
    #: for ``data_stall_cycles`` when it reaches the ROB head (L1-D misses,
    #: dependence chains). Dilutes front-end time to the paper's regime —
    #: server cores spend most cycles on the data side.
    data_stall_bb_frac: float = 0.32
    data_stall_cycles: int = 20
    #: Cycles to read + predecode a resident block during Boomerang's BTB
    #: miss resolution (L1-I access + predecode + BTB insert).
    predecode_latency: int = 3

    def __post_init__(self) -> None:
        _require(self.fetch_width > 0, "fetch width must be positive")
        _require(self.commit_width > 0, "commit width must be positive")
        _require(self.rob_size >= self.commit_width, "ROB must hold a commit group")
        _require(self.ftq_depth >= 1, "FTQ depth must be >= 1")


@dataclass(frozen=True)
class MemoryParams:
    """L1-I, LLC and DRAM timing/geometry."""

    l1i: CacheParams = field(default_factory=lambda: CacheParams(32 * 1024, 2, hit_latency=2))
    #: Modelled shared-LLC slice capacity visible to the simulated core.
    llc: CacheParams = field(default_factory=lambda: CacheParams(4 * 1024 * 1024, 16, hit_latency=5))
    noc: NoCParams = field(default_factory=NoCParams)
    #: DRAM access latency in cycles (45 ns at 2 GHz).
    memory_latency: int = 90
    prefetch_buffer_entries: int = 64
    #: Override the computed LLC round-trip latency (used by latency sweeps).
    llc_round_trip_override: int | None = None
    #: LLC/NoC contention: fills beyond this many outstanding each add
    #: ``llc_contention_penalty`` cycles. This is what makes over-aggressive
    #: prefetching (Figure 10's 4/8-block policies) delay useful blocks.
    llc_contention_free: int = 8
    llc_contention_penalty: int = 3

    def __post_init__(self) -> None:
        _require(self.memory_latency >= 0, "memory latency must be >= 0")
        _require(self.prefetch_buffer_entries >= 1, "prefetch buffer needs >= 1 entry")
        if self.llc_round_trip_override is not None:
            _require(self.llc_round_trip_override >= 1, "LLC latency override must be >= 1")

    @property
    def llc_round_trip(self) -> int:
        """Average L1-I-miss-to-fill latency for an LLC hit, in cycles."""
        if self.llc_round_trip_override is not None:
            return self.llc_round_trip_override
        noc = self.noc
        if noc.kind == "crossbar":
            return noc.crossbar_round_trip + self.llc.hit_latency
        # Average Manhattan distance between two uniform-random tiles of an
        # n x n mesh is 2*(n^2-1)/(3n) hops each way.
        n = noc.mesh_dim
        avg_hops = 2.0 * (n * n - 1) / (3.0 * n)
        one_way = avg_hops * noc.cycles_per_hop + noc.router_latency + noc.serialization
        return int(round(2 * one_way + self.llc.hit_latency))


@dataclass(frozen=True)
class PredictorParams:
    """Branch direction predictor selection and sizing."""

    kind: str = "tage"
    #: Bimodal table entries (used by ``bimodal`` and as the TAGE base table).
    bimodal_entries: int = 4096
    #: TAGE tagged-table geometry (entries per table, tag bits, history lengths).
    tage_table_entries: int = 1024
    tage_tag_bits: int = 8
    tage_history_lengths: tuple[int, ...] = (5, 15, 44, 130)

    KNOWN_KINDS = ("never_taken", "always_taken", "bimodal", "tage", "oracle")

    def __post_init__(self) -> None:
        _require(self.kind in self.KNOWN_KINDS, f"unknown predictor kind {self.kind!r}")
        _require(_is_pow2(self.bimodal_entries), "bimodal entries must be a power of two")
        _require(_is_pow2(self.tage_table_entries), "TAGE table entries must be a power of two")
        _require(len(self.tage_history_lengths) >= 1, "TAGE needs >= 1 tagged table")
        _require(
            all(a < b for a, b in zip(self.tage_history_lengths, self.tage_history_lengths[1:])),
            "TAGE history lengths must be strictly increasing",
        )


@dataclass(frozen=True)
class PrefetchParams:
    """Per-mechanism tunables for the control-flow delivery schemes."""

    #: Next-line prefetch degree (blocks) for ``next_line`` and DIP's helper.
    next_line_degree: int = 2
    #: DIP discontinuity table entries.
    dip_table_entries: int = 8192
    #: PIF/SHIFT temporal history length (block records) and index entries.
    stream_history_entries: int = 32768
    stream_index_entries: int = 8192
    #: Blocks prefetched ahead of the stream replay pointer.
    stream_lookahead: int = 16
    #: History records fetched per LLC access when metadata lives in the LLC
    #: (SHIFT/Confluence); each chunk fetch pays the LLC round trip.
    shift_chunk_records: int = 8
    #: Boomerang: sequential blocks prefetched under an unresolved BTB miss.
    throttle_blocks: int = 2
    #: Boomerang: BTB prefetch buffer capacity (entries).
    btb_prefetch_buffer_entries: int = 32
    #: Confluence models a generous 16K-entry BTB (paper Section V-A).
    confluence_btb_entries: int = 16384

    def __post_init__(self) -> None:
        _require(self.next_line_degree >= 1, "next-line degree must be >= 1")
        _require(self.throttle_blocks >= 0, "throttle blocks must be >= 0")
        _require(self.stream_lookahead >= 1, "stream lookahead must be >= 1")
        _require(self.shift_chunk_records >= 1, "SHIFT chunk must hold >= 1 record")


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration of one simulation run."""

    mechanism: str = "none"
    core: CoreParams = field(default_factory=CoreParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    btb: BTBParams = field(default_factory=BTBParams)
    predictor: PredictorParams = field(default_factory=PredictorParams)
    prefetch: PrefetchParams = field(default_factory=PrefetchParams)
    #: Idealizations used by the Figure 1 opportunity study.
    perfect_l1i: bool = False
    perfect_btb: bool = False

    def with_llc_latency(self, round_trip: int) -> "SimConfig":
        """Return a copy whose LLC round trip is pinned to ``round_trip``."""
        return replace(self, memory=replace(self.memory, llc_round_trip_override=round_trip))

    def with_btb_entries(self, entries: int) -> "SimConfig":
        """Return a copy with a resized (same-associativity) BTB."""
        assoc = self.btb.assoc
        if entries % assoc != 0 or not _is_pow2(entries // assoc):
            assoc = 4 if entries % 4 == 0 and _is_pow2(entries // 4) else 1
        return replace(self, btb=BTBParams(entries=entries, assoc=assoc))

    def with_predictor(self, kind: str) -> "SimConfig":
        """Return a copy using direction predictor ``kind``."""
        return replace(self, predictor=replace(self.predictor, kind=kind))
