#!/usr/bin/env python
"""Aggregate ``benchmarks/results/BENCH_*.json`` into one perf report.

Each perf-guard benchmark leaves a machine-readable payload behind
(``BENCH_analytic_hybrid.json``, ...). This
script folds every payload into a single longitudinal markdown table —
one row per benchmark with its headline speedup and timings — followed by
a flattened per-benchmark detail section. CI appends the output to the
benchmarks job's step summary, so the perf trajectory of the repo is
readable off one page instead of N JSON artifacts.

The report is generic over payload shape: any nested object holding a
``seconds`` key is treated as a timed mode, any top-level ``speedup`` as
the headline ratio, and everything else lands in the detail listing.

Usage::

    python scripts/bench_report.py [--results-dir benchmarks/results]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def flatten(payload: dict, prefix: str = "") -> dict[str, object]:
    """Nested dicts -> dotted scalar keys, insertion order preserved."""
    flat: dict[str, object] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, f"{name}."))
        else:
            flat[name] = value
    return flat


def timed_modes(payload: dict) -> list[tuple[str, float]]:
    """The benchmark's timed modes: (name, seconds), in payload order."""
    modes = []
    for key, value in payload.items():
        if isinstance(value, dict) and isinstance(
            value.get("seconds"), (int, float)
        ):
            modes.append((key, float(value["seconds"])))
    return modes


def load_payloads(results_dir: Path) -> list[tuple[str, dict]]:
    payloads = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"warning: skipping unreadable {path}: {exc}", file=sys.stderr)
            continue
        if isinstance(payload, dict):
            payloads.append((name, payload))
        else:
            # Valid JSON that is not an object is just as malformed as
            # unparseable bytes — dropping it silently would hide a broken
            # benchmark from the report.
            print(
                f"warning: skipping malformed {path}: not a JSON object "
                f"(got {type(payload).__name__})",
                file=sys.stderr,
            )
    return payloads


def summary_table(payloads: list[tuple[str, dict]]) -> list[str]:
    lines = [
        "| benchmark | workload | cells | modes (seconds) | speedup | floor |",
        "|---|---|---|---|---|---|",
    ]
    for name, payload in payloads:
        modes = " vs ".join(
            f"{mode} {seconds:g}s" for mode, seconds in timed_modes(payload)
        )
        speedup = payload.get("speedup", "—")
        floor = payload.get("speedup_floor", "—")
        lines.append(
            f"| {name} | {payload.get('workload', '—')} "
            f"| {payload.get('cells', '—')} | {modes or '—'} "
            f"| **{speedup}x** | {floor}x |"
        )
    return lines


def detail_sections(payloads: list[tuple[str, dict]]) -> list[str]:
    lines = []
    for name, payload in payloads:
        lines.append("")
        lines.append(f"<details><summary>{name}: full payload</summary>")
        lines.append("")
        lines.append("| metric | value |")
        lines.append("|---|---|")
        for key, value in flatten(payload).items():
            lines.append(f"| {key} | {value} |")
        lines.append("")
        lines.append("</details>")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=DEFAULT_RESULTS_DIR,
        help="directory holding BENCH_*.json payloads",
    )
    args = parser.parse_args(argv)
    payloads = load_payloads(args.results_dir)
    if not payloads:
        print(f"no BENCH_*.json payloads under {args.results_dir}", file=sys.stderr)
        return 1
    print("### Benchmark perf trajectory")
    print()
    for line in summary_table(payloads):
        print(line)
    for line in detail_sections(payloads):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
