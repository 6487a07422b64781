"""Run every experiment and print the paper-style tables.

Usage::

    python -m repro.experiments [quick|default|full] [exhibit ...]
                                [--jobs N] [--cache-dir PATH] [--backend NAME]

Options:

``--jobs N``
    Execute uncached simulation runs on an ``N``-worker process pool.
    Tables are bit-identical to a serial run — parallelism only changes
    where a simulation executes, never its inputs or the result ordering.
    Defaults to ``$REPRO_JOBS`` (else 1, fully serial).

``--cache-dir PATH``
    Persist every simulation result as a JSON record under ``PATH`` (see
    ``repro.runtime.cache`` for the layout; records are versioned by an
    engine schema tag, so results from an older engine are never reused).
    A warm rerun against a populated cache skips simulation entirely.
    Defaults to ``$REPRO_CACHE_DIR`` (else no disk cache).

``--backend NAME``
    Executor backend for uncached runs: ``serial``, ``pool``, ``broker``
    or ``auto`` (default; picks ``pool`` when jobs > 1). ``broker``
    fans jobs out through the file-based queue under the cache dir —
    start stealers with ``python -m repro.runtime worker`` (any number,
    any machine sharing the filesystem; see ``docs/runtime.md``).
    Defaults to ``$REPRO_BACKEND``. Results are bit-identical across
    backends.

The positional scale (or ``$REPRO_SCALE``) only chooses how big a grid each
exhibit assembles; it composes freely with the flags — each scale's runs
are distinct cache entries.
"""

from __future__ import annotations

import sys
import time

from ..envopts import resolve
from ..errors import ConfigError
from ..runtime import backend_summary, configure_runtime, get_runtime
from . import EXPERIMENTS
from .common import SCALES, get_scale


def _parse_flag(args: list[str], name: str) -> str | None:
    """Pop ``--name VALUE`` or ``--name=VALUE`` from ``args`` (last wins)."""
    value: str | None = None
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == name:
            if i + 1 >= len(args):
                raise SystemExit(f"{name} requires a value")
            value = args[i + 1]
            del args[i : i + 2]
        elif arg.startswith(name + "="):
            value = arg[len(name) + 1 :]
            del args[i]
        else:
            i += 1
    return value


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _run(args: list[str]) -> int:
    jobs = _parse_flag(args, "--jobs")
    cache_dir = _parse_flag(args, "--cache-dir")
    backend = _parse_flag(args, "--backend")
    if jobs is not None or cache_dir is not None or backend is not None:
        # The --jobs string is parsed and checked like REPRO_JOBS.
        configure_runtime(
            jobs=resolve("REPRO_JOBS", jobs), cache_dir=cache_dir, backend=backend
        )
    scale = None
    if args and args[0] in SCALES:
        scale = args.pop(0)
    get_scale(scale)  # an unknown REPRO_SCALE fails here, before any run
    chosen = args or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown exhibits: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in chosen:
        start = time.time()
        result = EXPERIMENTS[name].run(scale)
        elapsed = time.time() - start
        print(result.to_table())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        print()
    runtime = get_runtime()
    if runtime.disk is not None:
        print(
            f"[cache: {runtime.disk.hits} disk hits, {runtime.disk.corrupt} corrupt, "
            f"{runtime.executed} simulated, jobs={runtime.jobs}, "
            f"{backend_summary(runtime)}]"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
