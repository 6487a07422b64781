"""Byte identity of every workload build, pinned by sha256 digests.

``tests/data/golden_build_digests.json`` holds, per build, one sha256 over
the CFG (every :class:`StaticBlock` field in address order, the functions
and the entry) and one over the six trace record fields, each encoded as a
column at the width it was pinned at (:data:`PINNED_TRACE_WIDTHS`). It
covers all ten profiles at the quick scale, at their stock seeds and at
two replaced seeds, so any change to the builder's or the walker's PRNG
draw order, or to what a draw is used for, fails here exactly. The trace
summaries in ``golden_summaries.json`` only pin aggregates.

Regenerate after an *intentional* workload-semantics change with::

    PYTHONPATH=src python tests/test_build_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import sys
from array import array

import pytest

from repro.workloads import ControlFlowGraph, Trace, WorkloadProfile, workload_set
from repro.workloads.builder import build_cfg
from repro.workloads.trace import generate_trace
from repro.workloads.tracestore import TraceStore, trace_seed

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_build_digests.json"

#: The quick experiment scale (the same as golden_summaries.json).
WORKLOAD_SCALE = 0.25

#: Seeds that replace each profile's stock seed, beside the stock build.
REPLACED_SEEDS = (11, 12)


def cfg_digest(cfg: ControlFlowGraph) -> str:
    """sha256 over every block field (address order), functions and entry."""
    blocks = [
        [
            blk.start,
            blk.n_instrs,
            int(blk.kind),
            blk.target,
            blk.func_id,
            blk.bias,
            blk.loop_mean,
            [[tgt, weight] for tgt, weight in blk.indirect_targets],
            blk.corr_src,
            blk.corr_invert,
        ]
        for _, blk in sorted(cfg.blocks.items())
    ]
    functions = [
        [f.func_id, f.name, f.entry, f.layer, list(f.block_starts)]
        for f in cfg.functions
    ]
    text = json.dumps([cfg.entry, blocks, functions], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Array typecode per trace record field (``REC_*`` order) at which the
#: trace digests were taken. The trace stores narrower columns and no next
#: pc; re-encoding at these widths keeps the digests comparable, so they
#: pin the values whatever width the trace holds them at.
PINNED_TRACE_WIDTHS = ("q", "i", "b", "b", "q", "b")


def trace_digest(trace: Trace) -> str:
    """sha256 over the six record fields as columns at the pinned widths.

    The next pcs are rebuilt from the start column, whose last entry is
    the next pc of the last record.
    """
    start, ninstr, kind, taken, entry = trace.columns
    fields = (start[:-1], ninstr, kind, taken, start[1:], entry)
    digest = hashlib.sha256()
    for typecode, values in zip(PINNED_TRACE_WIDTHS, fields, strict=True):
        digest.update(array(typecode, values).tobytes())
    return digest.hexdigest()


def build_cases() -> dict[str, WorkloadProfile]:
    """Every pinned build, keyed ``<profile>@<seed>``."""
    cases = {}
    for stock in workload_set("all"):
        base = stock.scaled(WORKLOAD_SCALE)
        for seed in (base.seed, *REPLACED_SEEDS):
            cases[f"{stock.name}@{seed}"] = dataclasses.replace(base, seed=seed)
    return cases


def build(profile: WorkloadProfile) -> tuple[ControlFlowGraph, Trace]:
    """Build ``profile`` from scratch (no memo, no store)."""
    cfg = build_cfg(profile)
    trace = generate_trace(cfg, profile.default_trace_instrs, seed=trace_seed(profile))
    return cfg, trace


def build_digests(profile: WorkloadProfile) -> dict[str, str]:
    cfg, trace = build(profile)
    return {"cfg": cfg_digest(cfg), "trace": trace_digest(trace)}


CASES = build_cases()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert golden["workload_scale"] == WORKLOAD_SCALE
    assert sorted(golden["builds"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_bytes_pinned(golden, case, tmp_path):
    """Each build matches its digests, both fresh and after a trace-store
    put -> get (the store must hand back exactly the bytes it was given)."""
    profile = CASES[case]
    cfg, trace = build(profile)
    want = golden["builds"][case]
    assert cfg_digest(cfg) == want["cfg"], f"{case}: CFG bytes diverged"
    assert trace_digest(trace) == want["trace"], f"{case}: trace bytes diverged"
    store = TraceStore(tmp_path)
    store.put(profile, profile.default_trace_instrs, cfg, trace)
    loaded_cfg, loaded_trace = store.get(profile, profile.default_trace_instrs)
    assert cfg_digest(loaded_cfg) == want["cfg"], f"{case}: stored CFG diverged"
    assert trace_digest(loaded_trace) == want["trace"], f"{case}: stored trace diverged"


def _regenerate() -> None:
    out = {
        "workload_scale": WORKLOAD_SCALE,
        "builds": {case: build_digests(profile) for case, profile in sorted(CASES.items())},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out['builds'])} build digests to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
