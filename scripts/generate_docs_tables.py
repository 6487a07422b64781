#!/usr/bin/env python3
"""Regenerate (or drift-check) the generated tables in docs/experiments.md.

Three blocks between ``<!-- generated:begin NAME -->`` markers are owned
by this script and derived from code registries, so the docs can never
silently drift from what the code actually ships:

* ``exhibits`` — every entry of ``repro.experiments.EXPERIMENTS`` with its
  module and (for a simulated exhibit) the name of the module's ``SPEC``;
* ``sweeps``   — every ``repro.experiments.sweeps.SWEEPS`` spec with its
  grid and unique-job count at the default scale;
* ``claims``   — the per-exhibit paper claims shared with
  ``scripts/generate_experiments_md.py`` (the EXPERIMENTS.md generator).

Usage::

    python scripts/generate_docs_tables.py           # rewrite in place
    python scripts/generate_docs_tables.py --check   # exit 1 on drift (CI)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from generate_experiments_md import PAPER_CLAIMS  # noqa: E402
from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.experiments.common import get_scale  # noqa: E402
from repro.experiments.sweeps import SWEEPS  # noqa: E402

DOC_PATH = REPO_ROOT / "docs" / "experiments.md"

_MARKER = "<!-- generated:begin {name} -->\n{body}<!-- generated:end {name} -->"


def _exhibit_table() -> str:
    lines = [
        "| exhibit | module | sweep | regenerate |",
        "|---|---|---|---|",
    ]
    for name, module in EXPERIMENTS.items():
        mod_path = module.__name__.replace("repro.experiments.", "")
        spec = getattr(module, "SPEC", None)
        sweep_cell = f"`{spec.name}`" if spec else "—"
        lines.append(
            f"| {name} | `experiments/{mod_path}.py` | {sweep_cell} | "
            f"`python -m repro.experiments default {name}` |"
        )
    return "\n".join(lines) + "\n"


def _sweep_table() -> str:
    scale = get_scale("default")
    lines = [
        "| sweep | grid | workloads | jobs |",
        "|---|---|---|---|",
    ]
    for spec in SWEEPS.values():
        wl_set = spec.workload_set or "paper*"
        lines.append(
            f"| `{spec.name}` | {spec.summary()} | {wl_set} | "
            f"{spec.job_count(scale)} |"
        )
    lines.append("")
    lines.append(
        "\\* default set; override per run with `--workload-set` / "
        "`REPRO_WORKLOAD_SET`. Job counts include matched baselines."
    )
    return "\n".join(lines) + "\n"


def _claims_list() -> str:
    lines = [f"* **{name}** — {claim}" for name, claim in PAPER_CLAIMS.items()]
    return "\n".join(lines) + "\n"


BLOCKS = {
    "exhibits": _exhibit_table,
    "sweeps": _sweep_table,
    "claims": _claims_list,
}


def render(text: str) -> str:
    """Replace every generated block in ``text`` with fresh content."""
    for name, builder in BLOCKS.items():
        pattern = re.compile(
            rf"<!-- generated:begin {name} -->\n.*?<!-- generated:end {name} -->",
            re.DOTALL,
        )
        if not pattern.search(text):
            raise SystemExit(f"docs/experiments.md lost its {name!r} markers")
        text = pattern.sub(
            lambda _m: _MARKER.format(name=name, body=builder()), text, count=1
        )
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the committed tables differ from regenerated ones",
    )
    args = parser.parse_args(argv)
    committed = DOC_PATH.read_text()
    fresh = render(committed)
    if args.check:
        if committed != fresh:
            print(
                "docs/experiments.md is stale: regenerate with "
                "`python scripts/generate_docs_tables.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/experiments.md tables are up to date")
        return 0
    if committed == fresh:
        print("docs/experiments.md already up to date")
    else:
        DOC_PATH.write_text(fresh)
        print("rewrote generated tables in docs/experiments.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
