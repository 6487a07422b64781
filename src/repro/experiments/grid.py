"""Declarative experiment grids: one :class:`SweepSpec` per exhibit or sweep.

A spec names knob axes over mechanisms over a workload set, and compiles
to one :class:`~repro.runtime.SimJob` batch that the runtime executes on
any backend (``--jobs`` process pool, or the distributed broker with
``--backend broker``). Its grid is a union of cartesian products: the
spec's own ``mechanisms × axes``, then each :class:`Grid` in ``union``.

Knob axes (:data:`KNOBS`) apply a value to a ``SimConfig``; *shared*
knobs (BTB size, LLC latency, NoC kind) also apply to the matched
no-prefetch baseline each speedup is computed against, while
mechanism-local knobs (throttle policy, FTQ depth, ...) leave the
baseline untouched. An axis gives explicit values, or the name of an
:class:`~repro.experiments.common.ExperimentScale` field
(``latency_points``, ``btb_sizes``, ``fig3_btb_sizes``) to take its
points from the active scale.

:meth:`SweepSpec.run` submits the batch once and hands the spec's
``render`` a :class:`SweepResults` lookup; the default render is the
per-point IPC/speedup table. Each figure module is its ``SPEC`` plus a
render, and :mod:`repro.experiments.sweeps` registers them by name.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

from ..config import SimConfig
from ..core.mechanisms import MECHANISMS, make_config
from ..core.results import SimulationResult
from ..envopts import resolve
from ..errors import ConfigError
from ..runtime import SimJob, config_digest, get_runtime
from ..runtime.runner import run_key
from ..stats import geometric_mean
from .common import ExperimentResult, ExperimentScale, get_scale, workload_names

# ---------------------------------------------------------------------------
# Knob axes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One sweepable config dimension.

    ``shared`` knobs describe the machine around the mechanism and are
    applied to the no-prefetch baseline too; non-shared knobs tune the
    mechanism itself and leave the baseline at its defaults.
    """

    name: str
    shared: bool
    apply: Callable[[SimConfig, Any], SimConfig]


def _apply_noc_kind(cfg: SimConfig, kind: str) -> SimConfig:
    return replace(
        cfg, memory=replace(cfg.memory, noc=replace(cfg.memory.noc, kind=kind))
    )


def _apply_ftq_depth(cfg: SimConfig, depth: int) -> SimConfig:
    return replace(cfg, core=replace(cfg.core, ftq_depth=depth))


def _apply_predecode(cfg: SimConfig, latency: int) -> SimConfig:
    return replace(cfg, core=replace(cfg.core, predecode_latency=latency))


def _apply_throttle(cfg: SimConfig, blocks: int) -> SimConfig:
    return replace(cfg, prefetch=replace(cfg.prefetch, throttle_blocks=blocks))


def _apply_btb_buffer(cfg: SimConfig, entries: int) -> SimConfig:
    return replace(
        cfg, prefetch=replace(cfg.prefetch, btb_prefetch_buffer_entries=entries)
    )


#: Every axis name a sweep may use.
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("btb_entries", True, lambda cfg, v: cfg.with_btb_entries(v)),
        Knob("llc_latency", True, lambda cfg, v: cfg.with_llc_latency(v)),
        Knob("noc_kind", True, _apply_noc_kind),
        Knob("predictor", False, lambda cfg, v: cfg.with_predictor(v)),
        Knob("ftq_depth", False, _apply_ftq_depth),
        Knob("predecode_latency", False, _apply_predecode),
        Knob("throttle_blocks", False, _apply_throttle),
        Knob("btb_prefetch_buffer", False, _apply_btb_buffer),
        Knob("perfect_l1i", False, lambda cfg, v: replace(cfg, perfect_l1i=v)),
        Knob("perfect_btb", False, lambda cfg, v: replace(cfg, perfect_btb=v)),
    )
}

#: Axis values: explicit points, or the name of an ExperimentScale field
#: whose points the active scale supplies.
AxisValues = tuple[object, ...]
Axis = tuple[str, "AxisValues | str"]

#: The ExperimentScale fields an axis may name.
SCALE_AXES = tuple(
    f.name for f in fields(ExperimentScale) if f.name not in ("name", "workload_scale")
)


def _axis_points(axis: Axis, scale: ExperimentScale) -> AxisValues:
    knob, values = axis
    if isinstance(values, str):
        return tuple(getattr(scale, values))
    return tuple(values)


# ---------------------------------------------------------------------------
# Grid geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a mechanism plus concrete knob settings."""

    mechanism: str
    settings: tuple[tuple[str, object], ...]

    def __getitem__(self, knob: str) -> Any:
        """The point's value on one axis."""
        return dict(self.settings)[knob]

    def config(self) -> SimConfig:
        cfg = make_config(self.mechanism)
        for knob, value in self.settings:
            cfg = KNOBS[knob].apply(cfg, value)
        return cfg

    def baseline_point(self) -> SweepPoint:
        """The matched no-prefetch baseline as a point (shared knobs only)."""
        shared = tuple((knob, value) for knob, value in self.settings if KNOBS[knob].shared)
        return SweepPoint("none", shared)

    def baseline(self) -> SimConfig:
        """The matched no-prefetch baseline's config."""
        return self.baseline_point().config()


@dataclass(frozen=True)
class Grid:
    """One cartesian product: mechanisms × axis values."""

    mechanisms: tuple[str, ...]
    axes: tuple[Axis, ...] = ()

    def points(self, scale: ExperimentScale) -> list[SweepPoint]:
        value_grid = [_axis_points(axis, scale) for axis in self.axes]
        names = tuple(knob for knob, _ in self.axes)
        return [
            SweepPoint(mechanism, tuple(zip(names, values)))
            for mechanism in self.mechanisms
            for values in itertools.product(*value_grid)
        ]

    def summary(self) -> str:
        """One line for the CLI and the docs tables: ``mechs × knob=values``."""
        mechs = ", ".join(self.mechanisms)
        axes = [
            f"{knob}=<{values}>"
            if isinstance(values, str)
            else f"{knob}={'/'.join(str(v) for v in values)}"
            for knob, values in self.axes
        ]
        return f"{mechs} × {', '.join(axes)}" if axes else mechs


# ---------------------------------------------------------------------------
# What a render reads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResults:
    """Each (workload, point) result of a run, and each point's baseline."""

    spec: SweepSpec
    scale: ExperimentScale
    workloads: tuple[str, ...]
    by_key: Mapping[tuple[str, str, str], SimulationResult]
    #: Config digest per point, each hashed on its first read. Baselines
    #: are read through their baseline points, so points that share their
    #: shared knobs share one baseline digest.
    _digests: dict[SweepPoint, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def points(self) -> list[SweepPoint]:
        return self.spec.points(self.scale)

    def _result(self, name: str, point: SweepPoint) -> SimulationResult:
        digest = self._digests.get(point)
        if digest is None:
            digest = self._digests[point] = config_digest(point.config())
        return self.by_key[run_key(name, self.scale.workload_scale, digest)]

    def __getitem__(self, cell: tuple[str, SweepPoint]) -> SimulationResult:
        return self._result(*cell)

    def baseline(self, name: str, point: SweepPoint) -> SimulationResult:
        return self._result(name, point.baseline_point())

    def speedups(self, point: SweepPoint) -> list[float]:
        """Per-workload speedup of ``point`` over its matched baseline."""
        return [
            self[name, point].speedup_over(self.baseline(name, point))
            for name in self.workloads
        ]

    def speedup_rows(self) -> list[list[object]]:
        """One row per workload (a column per point), then a gmean row."""
        columns = [self.speedups(point) for point in self.points()]
        rows: list[list[object]] = [
            [name, *(column[i] for column in columns)]
            for i, name in enumerate(self.workloads)
        ]
        rows.append(["gmean", *(geometric_mean(column) for column in columns)])
        return rows

    def stall_coverage(self, point: SweepPoint) -> float:
        """Share of baseline stall cycles ``point`` covers, pooled over workloads."""
        covered = 0.0
        base_total = 0.0
        for name in self.workloads:
            base = self.baseline(name, point)
            covered += max(0.0, base.stall_cycles - self[name, point].stall_cycles)
            base_total += base.stall_cycles
        return covered / base_total if base_total else 0.0


def table(results: SweepResults) -> ExperimentResult:
    """The default render: IPC and speedup per (workload, point).

    A ``gmean`` row summarizes each point across its workloads.
    """
    spec = results.spec
    axis_names = spec.axis_names()
    headers = ["workload", "mechanism", *axis_names, "ipc"]
    if spec.include_baseline:
        headers.append("speedup")
    result = ExperimentResult(
        exhibit=f"sweep:{spec.name}", title=spec.title, headers=headers
    )
    for point in results.points():
        settings = dict(point.settings)
        axis_values = [settings.get(knob, "") for knob in axis_names]
        speedups: list[float] = []
        for name in results.workloads:
            res = results[name, point]
            row: list[object] = [name, point.mechanism, *axis_values, res.ipc]
            if spec.include_baseline:
                speedup = res.speedup_over(results.baseline(name, point))
                speedups.append(speedup)
                row.append(speedup)
            result.rows.append(row)
        if spec.include_baseline and len(results.workloads) > 1:
            result.rows.append(
                ["gmean", point.mechanism, *axis_values, "", geometric_mean(speedups)]
            )
    return result


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A named, declarative experiment grid and how to tabulate it.

    The grid is ``workloads × (mechanisms × axes ∪ union)``; :meth:`jobs`
    compiles it (plus the matched baselines) into one batch for
    :meth:`~repro.runtime.ExperimentRuntime.run_many`.
    """

    name: str
    title: str
    description: str
    mechanisms: tuple[str, ...]
    axes: tuple[Axis, ...] = ()
    #: Further products whose points follow the first product's.
    union: tuple[Grid, ...] = ()
    #: Profile set (None → ``REPRO_WORKLOAD_SET`` / ``paper``).
    workload_set: str | None = None
    #: Run a matched no-prefetch baseline per grid point (for speedups).
    include_baseline: bool = True
    #: Turns the run's results into the printed table.
    render: Callable[[SweepResults], ExperimentResult] = table

    def __post_init__(self) -> None:
        grids = self.grids()
        unknown_mechs = [m for g in grids for m in g.mechanisms if m not in MECHANISMS]
        if unknown_mechs:
            raise ConfigError(
                f"sweep {self.name!r}: unknown mechanisms {unknown_mechs}; "
                f"known: {', '.join(MECHANISMS)}"
            )
        axes = [axis for g in grids for axis in g.axes]
        unknown_axes = [knob for knob, _ in axes if knob not in KNOBS]
        if unknown_axes:
            raise ConfigError(
                f"sweep {self.name!r}: unknown axes {unknown_axes}; "
                f"known: {', '.join(KNOBS)}"
            )
        bad_scale = [v for _, v in axes if isinstance(v, str) and v not in SCALE_AXES]
        if bad_scale:
            raise ConfigError(
                f"sweep {self.name!r}: axis values {bad_scale} name no scale "
                f"field; known: {', '.join(SCALE_AXES)}"
            )
        if self.workload_set is not None:
            resolve("REPRO_WORKLOAD_SET", self.workload_set)

    # ------------------------------------------------------------ geometry

    def grids(self) -> tuple[Grid, ...]:
        """Every cartesian product of the spec, in point order."""
        return (Grid(self.mechanisms, self.axes), *self.union)

    def summary(self) -> str:
        """The grid as one line: each product's mechanisms × axes."""
        return " ∪ ".join(g.summary() for g in self.grids())

    def axis_names(self) -> tuple[str, ...]:
        """Every knob any product sweeps, in first-seen order."""
        names = (knob for g in self.grids() for knob, _ in g.axes)
        return tuple(dict.fromkeys(names))

    def points(self, scale: ExperimentScale) -> list[SweepPoint]:
        """Every (mechanism, settings) grid point, in deterministic order."""
        return [point for g in self.grids() for point in g.points(scale)]

    def workloads(self, workload_set: str | None = None) -> tuple[str, ...]:
        return workload_names(workload_set or self.workload_set)

    def jobs(
        self,
        scale: ExperimentScale,
        workload_set: str | None = None,
        workloads: tuple[str, ...] | None = None,
    ) -> list[SimJob]:
        """The full job batch: every grid point plus matched baselines."""
        names = workloads if workloads is not None else self.workloads(workload_set)
        batch: list[SimJob] = []
        for point in self.points(scale):
            # Each config is built once per point, not once per workload.
            configs = [point.config()]
            if self.include_baseline and point.mechanism != "none":
                configs.insert(0, point.baseline())
            for name in names:
                batch.extend(SimJob(name, cfg, scale.workload_scale) for cfg in configs)
        return batch

    def job_count(self, scale: ExperimentScale, workload_set: str | None = None) -> int:
        """Unique simulations the batch resolves to (duplicates collapsed)."""
        return len({job.key for job in self.jobs(scale, workload_set)})

    # ----------------------------------------------------------- execution

    def run(
        self,
        scale_name: str | None = None,
        workload_set: str | None = None,
        workloads: tuple[str, ...] | None = None,
    ) -> ExperimentResult:
        """Execute the grid as one runtime batch, then render its results.

        ``workloads`` names the profiles explicitly; otherwise
        ``workload_set`` (or the spec's own set) chooses them.
        """
        scale = get_scale(scale_name)
        names = workloads if workloads is not None else self.workloads(workload_set)
        jobs = self.jobs(scale, workloads=names)
        results = get_runtime().run_many(jobs)
        by_key = {job.key: result for job, result in zip(jobs, results)}
        return self.render(SweepResults(self, scale, names, by_key))
