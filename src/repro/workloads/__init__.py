"""Synthetic server workloads: profiles, CFG builder, traces and the store.

This subpackage substitutes for the paper's Flexus-captured commercial
workloads (see "The workload layer" in docs/architecture.md). The
public surface is:

* :func:`load_workload` / :class:`Workload` — build a ready-to-simulate
  workload from a named profile (memoized by content digest, optionally
  persisted via the trace store),
* :data:`ALL_PROFILES` (six Table II equivalents),
  :data:`EXTENDED_PROFILES` (four extra scenarios), :func:`workload_set` /
  ``REPRO_WORKLOAD_SET``, :func:`get_profile`,
* :class:`ControlFlowGraph` / :func:`build_cfg` — the static program model,
* :func:`generate_trace` / :class:`Trace` — deterministic columnar traces,
* :class:`TraceStore` / :func:`profile_digest` — the persistent
  content-addressed workload store (its tags are listed and pruned with
  every other store's by ``python -m repro.runtime list|prune``).
"""

from .builder import build_cfg, reachable_blocks
from .cfg import ControlFlowGraph, Function, StaticBlock
from .isa import BranchKind, EntryKind
from .profiles import (
    ALL_PROFILES,
    APACHE,
    COMPILERPASS,
    DB2,
    EXTENDED_PROFILES,
    INTERP,
    MICRORPC,
    MLSERVE,
    NUTCH,
    ORACLE,
    PROFILE_SETS,
    STREAMING,
    ZEUS,
    WorkloadProfile,
    get_profile,
    profile_names,
    workload_set,
)
from .trace import (
    COL_ENTRY,
    COL_KIND,
    COL_NINSTR,
    COL_START,
    COL_TAKEN,
    COLUMN_SPECS,
    REC_ENTRY,
    REC_KIND,
    REC_NEXT,
    REC_NINSTR,
    REC_START,
    REC_TAKEN,
    Trace,
    TraceBuilder,
    TraceSummary,
    generate_trace,
    summarize,
    taken_conditional_distances,
)
from .tracestore import TRACE_SCHEMA_TAG, TraceStore, profile_digest
from .workload import (
    Workload,
    clear_workload_cache,
    configure_trace_store,
    get_trace_store,
    load_workload,
    reset_trace_store,
)

__all__ = [
    "ALL_PROFILES",
    "APACHE",
    "COMPILERPASS",
    "DB2",
    "EXTENDED_PROFILES",
    "INTERP",
    "MICRORPC",
    "MLSERVE",
    "NUTCH",
    "ORACLE",
    "PROFILE_SETS",
    "STREAMING",
    "ZEUS",
    "BranchKind",
    "COL_ENTRY",
    "COL_KIND",
    "COL_NINSTR",
    "COL_START",
    "COL_TAKEN",
    "COLUMN_SPECS",
    "ControlFlowGraph",
    "EntryKind",
    "Function",
    "StaticBlock",
    "TRACE_SCHEMA_TAG",
    "Trace",
    "TraceBuilder",
    "TraceStore",
    "TraceSummary",
    "Workload",
    "WorkloadProfile",
    "REC_ENTRY",
    "REC_KIND",
    "REC_NEXT",
    "REC_NINSTR",
    "REC_START",
    "REC_TAKEN",
    "build_cfg",
    "clear_workload_cache",
    "configure_trace_store",
    "generate_trace",
    "get_profile",
    "get_trace_store",
    "load_workload",
    "profile_digest",
    "profile_names",
    "reachable_blocks",
    "reset_trace_store",
    "summarize",
    "taken_conditional_distances",
    "workload_set",
]
