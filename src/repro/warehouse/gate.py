"""The warehouse regression gate: tracked metrics vs a committed baseline.

``python -m repro.warehouse gate --baseline benchmarks/results/
warehouse_baseline.json`` reads the *deterministic* metrics out of the
consolidated benchmark payloads and fails (exit 1) when any tracked
metric drifts past the tolerance — CI's tripwire against silent
regressions in the quantities the benchmarks pin.

Only keys in :data:`TRACKED_KEYS` participate. Wall-clock speedups are
deliberately **not** tracked here: they vary with the runner and are
already guarded by each benchmark's own asserted floor (which *is*
tracked, as ``speedup_floor``/``reduction_floor``). Booleans must match
exactly; numbers must stay within a relative tolerance. A tracked metric
present in the baseline but missing from the warehouse is a failure too
(a benchmark silently dropped is drift, not progress). ``--update``
rewrites the baseline atomically from the current snapshot instead of
comparing.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

from ..errors import ConfigError
from ..runtime.atomicio import atomic_write_json

#: Baseline file format version.
GATE_SCHEMA = "warehouse-gate-v1"

#: Payload keys tracked per benchmark, as ``<bench>.<key>`` metrics.
#: Deterministic quantities only — never raw wall-clock numbers.
TRACKED_KEYS: tuple[str, ...] = (
    "cells",
    "exact_cells",
    "analytic_cells",
    "reduction",
    "max_rel_err",
    "bit_identical",
    "bounds_ok",
    "speedup_floor",
    "reduction_floor",
)


def collect_metrics(conn: sqlite3.Connection) -> dict[str, float | bool]:
    """``<bench>.<key>`` for every tracked key of every active payload."""
    metrics: dict[str, float | bool] = {}
    for row in conn.execute(
        "SELECT bench, payload FROM benches WHERE active = 1 ORDER BY bench"
    ):
        bench = str(row[0])
        try:
            payload = json.loads(str(row[1]))
        except ValueError:
            continue
        if not isinstance(payload, dict):
            continue
        for key in TRACKED_KEYS:
            value = payload.get(key)
            if isinstance(value, bool):
                metrics[f"{bench}.{key}"] = value
            elif isinstance(value, (int, float)):
                metrics[f"{bench}.{key}"] = float(value)
    return metrics


def load_baseline(path: str | Path) -> dict[str, float | bool]:
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read gate baseline {path}: {exc}") from None
    if not isinstance(record, dict) or record.get("schema") != GATE_SCHEMA:
        raise ConfigError(
            f"{path} is not a warehouse gate baseline (expected schema "
            f"{GATE_SCHEMA!r}); regenerate with `warehouse gate --update`"
        )
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        raise ConfigError(f"malformed gate baseline {path}: no metrics object")
    out: dict[str, float | bool] = {}
    for name, value in metrics.items():
        if isinstance(value, bool):
            out[str(name)] = value
        elif isinstance(value, (int, float)):
            out[str(name)] = float(value)
    return out


def write_baseline(path: str | Path, metrics: dict[str, float | bool]) -> None:
    atomic_write_json(
        Path(path),
        {"schema": GATE_SCHEMA, "metrics": {k: metrics[k] for k in sorted(metrics)}},
    )


def run_gate(
    conn: sqlite3.Connection,
    baseline_path: str | Path,
    tolerance: float = 0.05,
    update: bool = False,
) -> tuple[int, list[str]]:
    """Compare (or, with ``update``, rewrite) the baseline.

    Returns ``(exit_code, report_lines)``; nonzero means a tracked metric
    drifted past the tolerance or vanished from the warehouse. Metrics in
    the warehouse but not in the baseline are reported as notes, never
    failures — new benchmarks land first, get baselined second.
    """
    current = collect_metrics(conn)
    if update:
        write_baseline(baseline_path, current)
        return 0, [
            f"gate: wrote {len(current)} tracked metric(s) to {baseline_path}"
        ]
    baseline = load_baseline(baseline_path)
    lines: list[str] = []
    failures = 0
    for name in sorted(baseline):
        expected = baseline[name]
        actual = current.get(name)
        if actual is None:
            failures += 1
            lines.append(f"FAIL {name}: tracked metric missing from warehouse")
        elif isinstance(expected, bool) or isinstance(actual, bool):
            if actual is expected:
                lines.append(f"ok   {name}: {actual}")
            else:
                failures += 1
                lines.append(f"FAIL {name}: {actual} (baseline {expected})")
        else:
            rel = abs(actual - expected) / max(abs(expected), 1e-12)
            if rel <= tolerance:
                lines.append(f"ok   {name}: {actual:g} (baseline {expected:g})")
            else:
                failures += 1
                lines.append(
                    f"FAIL {name}: {actual:g} drifted {rel:.1%} from "
                    f"baseline {expected:g} (tolerance {tolerance:.1%})"
                )
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"note {name}: untracked (re-baseline with --update)")
    verdict = "FAILED" if failures else "passed"
    lines.append(
        f"gate {verdict}: {len(baseline) - failures}/{len(baseline)} "
        f"tracked metric(s) within tolerance {tolerance:.1%}"
    )
    return (1 if failures else 0), lines
