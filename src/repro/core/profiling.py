"""Per-stage cycle/time attribution (``--profile-stages``).

The sweeps CLI turns the process-wide profiler on (:func:`enable`), the
runtime's job executor consults it (:func:`active`), and every *stage
activation* is timed with ``perf_counter`` and accumulated per stage
name. An activation is a cycle on which the stage's gate opened, so the
engine called its ``tick`` (:mod:`repro.core.engine`): a stage's
activation count says how many cycles it could act, and its seconds what
those activations cost. Stages that are idle most cycles — fill arrivals,
squashes — show far fewer activations than the run has cycles. The loop
skips idle runs, so activations read against the cycles it visited.

Profiling never changes simulated results (the wrappers are pure
pass-throughs), but it does add per-call overhead, so wall-clock numbers
from a profiled run are for attribution, not for benchmarking.

The profiler is deliberately in-process state: the CLI forces the serial
backend while profiling, because pool/broker workers would accumulate
into their own processes and the data would never come back.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycles)
    from ..config import SimConfig
    from ..workloads.workload import Workload
    from .results import SimulationResult

__all__ = [
    "StageProfiler",
    "active",
    "disable",
    "enable",
    "run_profiled_single",
]


class StageProfiler:
    """Accumulates ``(activations, seconds)`` per stage name."""

    __slots__ = ("rows", "cycles")

    def __init__(self) -> None:
        #: stage name -> [activations, seconds], insertion-ordered.
        self.rows: dict[str, list[float]] = {}
        #: [simulated, visited] engine cycles over every profiled run.
        self.cycles = [0, 0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A pass-through wrapper timing every call of ``fn`` under ``name``.

        Callables sharing a name (the same stage in several runs) pool
        their counts and times into one row.
        """
        row = self.rows.setdefault(name, [0, 0.0])

        def timed(*args):  # type: ignore[no-untyped-def]
            start = perf_counter()
            out = fn(*args)
            row[0] += 1
            row[1] += perf_counter() - start
            return out

        return timed

    def table(self) -> str:
        """The per-stage attribution table the CLI prints."""
        if not self.rows:
            return (
                "[profile-stages: nothing executed — every result was a "
                "cache hit]"
            )
        total = sum(row[1] for row in self.rows.values())
        lines = [
            "per-stage attribution (activations = cycles the stage's gate opened):",
            f"  {'stage':<16s} {'activations':>12s} {'seconds':>9s} {'share':>6s}",
        ]
        for name, (calls, seconds) in self.rows.items():
            share = seconds / total if total else 0.0
            lines.append(
                f"  {name:<16s} {int(calls):>12d} {seconds:>9.3f} {share:>6.1%}"
            )
        lines.append(f"  {'total':<16s} {'':>12s} {total:>9.3f}")
        simulated, visited = self.cycles
        skipped = 1 - visited / simulated if simulated else 0.0
        lines.append(
            f"cycles: simulated {simulated}, visited {visited} ({skipped:.1%} skipped)"
        )
        return "\n".join(lines)


_ACTIVE: StageProfiler | None = None


def enable() -> StageProfiler:
    """Install (and return) a fresh process-wide profiler."""
    global _ACTIVE
    _ACTIVE = StageProfiler()
    return _ACTIVE


def active() -> StageProfiler | None:
    """The installed profiler, or ``None`` when profiling is off."""
    return _ACTIVE


def disable() -> None:
    """Remove the process-wide profiler (timing wrappers stop accruing)."""
    global _ACTIVE
    _ACTIVE = None


class _TimedStage:
    """Stage wrapper whose ``tick`` is the profiler's timed wrapper.

    Everything else (``counters()``, ``name``, the stage attributes the
    engine's gates and the results aggregation read) delegates to the
    wrapped stage.
    """

    def __init__(self, inner: object, profiler: StageProfiler):
        self._inner = inner
        self.tick = profiler.wrap(inner.name, inner.tick)  # type: ignore[attr-defined]

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)


def run_profiled_single(
    workload: "Workload", config: "SimConfig", profiler: StageProfiler
) -> "SimulationResult":
    """One simulation with every stage tick timed.

    Bit-identical to ``Simulator(workload, config).run()`` — the wrappers
    forward arguments and state untouched; only wall time is observed.
    """
    from .engine import FrontEndEngine
    from .results import SimulationResult

    engine = FrontEndEngine(workload, config)
    engine.stages = [  # type: ignore[assignment]
        _TimedStage(stage, profiler) for stage in engine.stages
    ]
    counters = engine.run()
    profiler.cycles[0] += int(counters["total_cycles"])
    profiler.cycles[1] += engine.visited_cycles
    return SimulationResult(
        workload=workload.name, mechanism=config.mechanism, raw=counters
    )
