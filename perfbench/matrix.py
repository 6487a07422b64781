"""``profile-matrix``: every mechanism on every profile, one cell each.

All 8 mechanisms × all 10 profiles (6 paper + 4 extended) at ``quick``
scale through the public ``load_workload`` / ``Simulator(...).run()``
API: no result cache, no trace store, one closed-loop client. No two
cells share a (workload, config) pair, so the time goes to the engine
layers (``core``, ``branch``, ``memory``, ``prefetch``); ``analytic`` and
the runtime are bypassed.

Cells run in a fixed balanced order: round ``r`` pairs profile ``i`` with
mechanism ``(i + r) % 8``, so every round covers all ten profiles and
spreads evenly over the mechanisms, and eight rounds cover the 80 cells
once. A run measures ``--seconds`` / 1 s cells of the order (30 cells,
three rounds, at the default 30 s), wrapping around if it gets that far.

Seed: ``0`` keeps the stock profile seeds, so every paper cell must equal
``tests/data/golden_quick.json``; at seed 0 the paper cells the run
did not reach are run afterwards (untimed) so all 48 are checked. Any
other seed replaces every profile's ``seed`` with it
(``dataclasses.replace``); those cells are checked for invariants
(retired + warm-up instructions == trace length) and one seeded cell is
re-run for bit-identical determinism.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import replace

from benchlib import ROOT, SETUP_REPS, median, peak_rss_mb, tail, units_for
from outcome import Outcome

from repro import ALL_PROFILES, EXTENDED_PROFILES, MECHANISMS, Simulator, make_config
from repro.experiments.common import get_scale
from repro.workloads import clear_workload_cache, configure_trace_store, load_workload

GOLDEN = ROOT / "tests" / "data" / "golden_quick.json"

#: Nominal host seconds per cell: sets how many cells a run measures.
NOMINAL_CELL_S = 1.0

#: In the traced run, one cell in this many is also run traced.
TRACE_EVERY = 8

OPTIONS = (
    f"quick scale ({get_scale('quick').workload_scale}), {len(MECHANISMS)} mechanisms x "
    f"{len(ALL_PROFILES) + len(EXTENDED_PROFILES)} profiles, Simulator API, "
    "no result cache, trace store off"
)


def cell_order(n_profiles: int, n_mechs: int) -> list[tuple[int, int]]:
    """(profile index, mechanism index) pairs in balanced round order."""
    return [
        (i, (i + r) % n_mechs) for r in range(n_mechs) for i in range(n_profiles)
    ]


def _instructions_ok(raw: dict, n_instrs: int) -> bool:
    return raw["retired_instrs"] + raw["warmup_instrs"] == n_instrs and raw["cycles"] > 0


def run(seconds: float, seed: int, tracer) -> Outcome:
    out = Outcome()
    configure_trace_store(None)
    scale = get_scale("quick").workload_scale
    stock = tuple(ALL_PROFILES) + tuple(EXTENDED_PROFILES)
    profiles = [p if seed == 0 else replace(p, seed=seed) for p in stock]
    paper = {p.name for p in ALL_PROFILES}

    setups = []
    for _ in range(1 if tracer else SETUP_REPS):
        clear_workload_cache()
        start = time.perf_counter()
        workloads = [load_workload(p, scale=scale) for p in profiles]
        setups.append(time.perf_counter() - start)

    gc.collect()  # start the measured work without set-up garbage
    order = cell_order(len(profiles), len(MECHANISMS))
    rng = random.Random(seed)
    trace_offset = rng.randrange(TRACE_EVERY)
    cells: list[dict] = []
    traced_s = untraced_s = 0.0
    rounds: list[float] = []
    started = round_start = time.perf_counter()
    for k in range(units_for(seconds, NOMINAL_CELL_S)):
        i, m = order[k % len(order)]
        wl, mech = workloads[i], MECHANISMS[m]
        cfg = make_config(mech)
        start = time.perf_counter()
        raw = Simulator(wl, cfg).run().raw
        dt = time.perf_counter() - start
        cell = {"wl": wl, "name": profiles[i].name, "mech": mech, "raw": raw, "s": dt}
        if tracer and k % TRACE_EVERY == trace_offset:
            with tracer.cell_span(f"{cell['name']}:{mech}"):
                start = time.perf_counter()
                traced_raw = Simulator(wl, cfg).run().raw
                traced_dt = time.perf_counter() - start
            traced_s += traced_dt
            untraced_s += dt
            out.check(traced_raw == raw, f"{cell['name']}:{mech}", "tracing changed stats")
        cells.append(cell)
        if len(cells) % len(profiles) == 0:
            now = time.perf_counter()
            rounds.append(now - round_start)
            round_start = now
    wall = time.perf_counter() - started

    golden = None
    if seed == 0:
        data = json.loads(GOLDEN.read_text())
        if data["workload_scale"] != scale:
            raise RuntimeError("golden file scale differs from quick scale")
        golden = data["stats"]
    checked = set()
    out.attempted = len(cells)
    for cell in cells:
        key = f"{cell['name']}:{cell['mech']}"
        ok = _instructions_ok(cell["raw"], cell["wl"].trace.n_instrs)
        out.check(ok, key, "retired + warm-up instructions != trace length")
        if golden is not None and cell["name"] in paper:
            out.check(cell["raw"] == golden[key], key, "differs from golden_quick.json")
            checked.add(key)
    if golden is not None:
        # Untimed: the paper cells the measured cells did not include.
        for i, m in order:
            key = f"{profiles[i].name}:{MECHANISMS[m]}"
            if profiles[i].name in paper and key not in checked:
                raw = Simulator(workloads[i], make_config(MECHANISMS[m])).run().raw
                out.attempted += 1
                out.check(raw == golden[key], key, "differs from golden_quick.json")
                checked.add(key)
        out.notes.append(f"golden: {len(checked)} paper cells compared")
    else:
        cell = cells[rng.randrange(len(cells))]
        again = Simulator(cell["wl"], make_config(cell["mech"])).run().raw
        out.check(again == cell["raw"], f"{cell['name']}:{cell['mech']}", "rerun differs")

    times = [c["s"] for c in cells]
    instrs = sum(c["wl"].trace.n_instrs for c in cells)
    cycles = sum(c["raw"]["total_cycles"] for c in cells)
    tail_s, tail_pct, n = tail(times)
    out.notes.append(
        f"{len(cells)} cells in {wall:.2f}s ({len(rounds)} full rounds); "
        f"cell_s_tail is p{tail_pct:.1f} of n={n}"
    )
    out.metrics.update(
        setup_s=(median(setups), "s"),
        cells_per_s=(len(cells) / wall, "cells/s"),
        sim_kips=(instrs / sum(times) / 1e3, "kinstr/s"),
        cell_s_p50=(median(times), "s"),
        cell_s_tail=(tail_s, "s"),
        makespan_s=(median(rounds) if rounds else wall * len(profiles) / len(cells), "s"),
        fleet_util=(sum(times) / wall, "ratio"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
    )
    if tracer:
        # Measured cells always run untraced; traced copies run beside them.
        out.layers.update({
            "core.engine.cycles": cycles,
            "core.engine.ns_per_cycle": sum(times) / cycles * 1e9,
            "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
        })
    return out
