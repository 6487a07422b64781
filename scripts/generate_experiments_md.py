#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every exhibit.

Runs the full experiment harness and writes the results, paired with the
paper's reported numbers, into EXPERIMENTS.md. The committed file is at
quick scale, the scale ``benchmarks/results/`` holds, and
``tests/test_docs_drift.py`` checks that each table equals its
``benchmarks/results/<exhibit>.txt``; ``quick`` is therefore the default.
At ``default`` scale the two latency sweeps use the quick latency grids to
keep the run under ~15 minutes.

Each exhibit's footer says how long it took, or, when it simulated no
cell (every result came from the result cache, e.g. a warm
``REPRO_CACHE_DIR``), says that instead of a misleading ``0s``.

Usage: python scripts/generate_experiments_md.py [quick|default|full]
"""

from __future__ import annotations

import io
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.runtime import get_runtime

#: Paper-reported numbers / claims per exhibit, used in the write-up.
#: Shared with scripts/generate_docs_tables.py, which renders the same
#: claims into docs/experiments.md (drift-checked in CI) — edit here.
PAPER_CLAIMS = {
    "figure1": "Perfect L1-I: +11-47% speedup; perfect BTB adds another 6-40%. "
               "OLTP (DB2) shows the largest BTB opportunity; Streaming the smallest overall.",
    "figure2": "FDIP+TAGE covers stall cycles nearly identically to PIF across LLC "
               "latencies 1-70; FDIP with 2-bit tracks closely; never-taken retains "
               "much of the coverage.",
    "figure3": "Sequential misses dominate the no-prefetch baseline (40-54% of miss "
               "cycles); FDIP covers all three classes; the BTB-size gap concentrates "
               "in the unconditional class.",
    "figure4": "~92% of dynamically taken conditional branches jump at most 4 cache blocks.",
    "figure5": "Shrinking the BTB 32K -> 2K costs only ~12% stall-cycle coverage.",
    "figure7": "BTB misses and mispredicts squash comparably in BTB-blind schemes "
               "(DB2 ~75% BTB); Boomerang and Confluence eliminate >85% of BTB-miss "
               "squashes (~2x total squash reduction).",
    "figure8": "Boomerang covers 61% of stall cycles on average ~ Confluence's 60%; "
               "Boomerang leads on web workloads, trails on Oracle/DB2.",
    "figure9": "Boomerang +27.5% average speedup, edging Confluence (+1%) and beating "
               "L1-I-only prefetchers by ~11%.",
    "figure10": "Next-2-blocks is the optimal throttled-prefetch policy on average "
                "(+12% on DB2 vs none); Streaming prefers none; >2 blocks degrades.",
    "figure11": "At an 18-cycle crossbar LLC the ordering is unchanged and absolute "
                "gains shrink; Boomerang keeps its slight edge over Confluence.",
    "storage": "Boomerang: 540 B (204 B FTQ + 336 B BTB prefetch buffer). Confluence: "
               "240 KB LLC tag extension + >200 KB LLC carve per workload. PIF: "
               ">200 KB/core. RDIP: ~60 KB. SHIFT: >400 KB.",
    "ablations": "(Not a paper exhibit.) Sensitivity of Boomerang to its three design "
                 "knobs, per Section IV-C's discussion.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Regenerated with `python scripts/generate_experiments_md.py` (scale: {scale};
fig. 2/5 latency grids: {latency_note}). Absolute values are not expected to
match the paper — the substrate is a synthetic-workload, single-core Python
model (docs/architecture.md) — the reproduced content is each exhibit's *shape*.

Global deviations to keep in mind when reading the tables:

1. **Speedups run somewhat higher than the paper's** (our baseline spends a
   larger share of time in front-end stalls than Flexus' cores did), so
   compare mechanisms against each other, not against the paper's absolute
   percentages.
2. **Our Boomerang does not fall behind Confluence on Oracle/DB2** (the
   paper's one loss). The effect requires Boomerang's BTB-miss stalls to
   drain the FTQ faster than the back end consumes it; at our simulated
   base IPC the 32-entry FTQ hides most of the prefill stalls. The
   underlying mechanism (BTB-miss stall cycles) is modelled and reported
   (`btb_miss_stall_cycles`), and the paper's Oracle/DB2 coverage gap does
   appear as a materially higher stall count on the OLTP profiles.
3. **PIF/SHIFT coverage is ~15 points below FDIP's** rather than equal to
   it (Fig. 2): our synthetic transactions have more conditional-path
   variation per recurrence than the paper's workloads, which caps
   temporal-stream coverage. Orderings involving PIF/SHIFT still hold.
4. **Figure 10's interior optimum does not reproduce**: beyond next-2 the
   paper sees degradation because 16 cores contend for LLC/NoC bandwidth
   and erroneous prefetches delay useful ones; a single detailed core
   under-prices that waste, so our curve keeps improving mildly past 2
   blocks. The claims that do reproduce: throttled prefetch beats none
   (DB2 gains the most, as in the paper) and returns diminish past next-2.

"""


def main() -> int:
    scale = sys.argv[1] if len(sys.argv) > 1 else "quick"
    sweep_scale = "quick" if scale == "default" else scale
    out = io.StringIO()
    latency_note = "quick" if sweep_scale == "quick" else sweep_scale
    out.write(HEADER.format(scale=scale, latency_note=latency_note))

    runtime = get_runtime()
    for name, module in EXPERIMENTS.items():
        exhibit_scale = sweep_scale if name in ("figure2", "figure5") else scale
        executed = runtime.executed
        start = time.time()
        print(f"running {name} at scale={exhibit_scale}...", flush=True)
        result = module.run(exhibit_scale)
        elapsed = time.time() - start
        command = f"`python -m repro.experiments {exhibit_scale} {name}`"
        out.write(f"## {name}\n\n")
        out.write(f"**Paper:** {PAPER_CLAIMS[name]}\n\n")
        out.write("**Measured:**\n\n```\n")
        out.write(result.to_table())
        out.write("\n```\n\n")
        # Only simulated exhibits (a SPEC grid) have cells to cache.
        if hasattr(module, "SPEC") and runtime.executed == executed:
            out.write(f"_Every cell came from the result cache ({command})._\n\n")
        else:
            out.write(f"_Regenerated in {elapsed:.0f}s ({command})._\n\n")

    with open("EXPERIMENTS.md", "w") as fh:
        fh.write(out.getvalue())
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
