#!/usr/bin/env python3
"""What a simulating process and a broker worker import, in fresh interpreters.

Two import paths are kept off the service stack:

* ``simulator`` — ``repro``, ``repro.workloads`` and
  ``repro.experiments.common``, then one store-less simulation. The
  runtime's broker, supervisor and executors, the sweep grids, the
  analytic tier, the warehouse, the trace store and the process and
  network modules must not load.
* ``worker`` — ``repro.runtime.__main__`` (``python -m repro.runtime
  worker``) and the runner. The supervisor, the executors, the
  experiments, the warehouse, ``multiprocessing`` and ``subprocess``
  must not load.

Each path runs in its own interpreter with every ``REPRO_*`` variable
removed, so no cache directory (and with it no trace store) is
configured. The default report prints, per path, the ``repro`` and total
module counts and the ten slowest imports by cumulative time
(``python -X importtime``) as Markdown; ``--check`` prints the modules a
path must not load and exits 1 if it loads any.

Usage::

    python scripts/import_surface.py [--check]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Path name -> (code run in a fresh interpreter, modules it must not load).
PATHS: dict[str, tuple[str, tuple[str, ...]]] = {
    "simulator": (
        "import repro, repro.workloads, repro.experiments.common\n"
        "from repro import Simulator, load_workload, make_config\n"
        "Simulator(load_workload('apache', scale=0.25), make_config('boomerang')).run()\n",
        (
            "repro.runtime.broker",
            "repro.runtime.supervisor",
            "repro.runtime.executors",
            "repro.experiments.grid",
            "repro.experiments.sweeps",
            "repro.analytic",
            "repro.warehouse",
            "repro.workloads.tracestore",
            "multiprocessing",
            "concurrent.futures",
            "subprocess",
            "socket",
        ),
    ),
    "worker": (
        "import repro.runtime.__main__, repro.runtime.runner\n",
        (
            "repro.runtime.supervisor",
            "repro.runtime.executors",
            "repro.experiments",
            "repro.warehouse",
            "multiprocessing",
            "subprocess",
        ),
    ),
}

_PRINT_MODULES = "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"


def _run(code: str, *flags: str) -> subprocess.CompletedProcess[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )


def loaded_modules(path: str) -> list[str]:
    """Every module in ``sys.modules`` after running ``path``'s code."""
    return _run(PATHS[path][0] + _PRINT_MODULES).stdout.split()


def forbidden_loaded(path: str) -> list[str]:
    """The modules ``path`` must not load that it did load."""
    modules = set(loaded_modules(path))
    return [name for name in PATHS[path][1] if name in modules]


def slowest_imports(path: str, n: int = 10) -> list[tuple[int, str]]:
    """``(cumulative microseconds, module)`` of the ``n`` slowest imports."""
    rows = []
    for line in _run(PATHS[path][0], "-X", "importtime").stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            rows.append((int(fields[1]), fields[2].strip()))
    return sorted(rows, reverse=True)[:n]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a path loads a module it must not")
    args = parser.parse_args(argv)
    if args.check:
        bad = {path: forbidden_loaded(path) for path in PATHS}
        for path, names in bad.items():
            print(f"{path}: {', '.join(names) or 'ok'}")
        return 1 if any(bad.values()) else 0
    print("### Import surface (fresh interpreter, no REPRO_* set)")
    for path in PATHS:
        modules = loaded_modules(path)
        repro = sum(name == "repro" or name.startswith("repro.") for name in modules)
        print(f"\n#### {path}: {repro} repro modules, {len(modules)} modules in all\n")
        print("| cumulative ms | module |\n|---:|---|")
        for micros, name in slowest_imports(path):
            print(f"| {micros / 1000:.1f} | `{name}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
