"""Shared experiment infrastructure: scales, workload names, result tables.

Experiments default to the ``default`` scale; set ``REPRO_SCALE=quick`` for
CI-speed runs or ``REPRO_SCALE=full`` for the most faithful (slowest)
regeneration. All scales preserve the footprint:structure over-subscription
ratios (see "Scales and workload sets" in ``docs/experiments.md``); quick
runs shrink trace length and sweep density, not the microarchitecture.
``REPRO_WORKLOAD_SET`` likewise selects which profiles the grids iterate
(``paper`` by default; ``all`` adds the four extended scenarios) without
touching any paper figure.

Each simulated exhibit is a :class:`~repro.experiments.grid.SweepSpec`
whose ``run`` submits the whole grid to :mod:`repro.runtime` as one batch,
which owns execution and caching:

* **Cache keys are sound.** Every run is keyed by ``(workload, scale,
  config-digest)`` where the digest hashes the *entire* frozen
  ``SimConfig`` dataclass tree (``repro.runtime.config_digest``). There is
  no hand-maintained field list — a config knob added tomorrow changes the
  key automatically, so two configs that differ anywhere can never collide.
* **Results can persist across processes.** Point ``REPRO_CACHE_DIR`` (or
  ``python -m repro.experiments --cache-dir``) at a directory and every
  result is stored as a JSON record under a schema-version tag
  (``repro.runtime.cache.SCHEMA_TAG``); warm reruns skip simulation
  entirely. Bumping the tag orphans stale records rather than reusing them.
* **Grids run in parallel — or distributed.** The batch's misses execute
  on the selected executor backend (``REPRO_BACKEND``/``--backend``): a
  process pool with ``REPRO_JOBS``/``--jobs`` > 1, or work-stealing
  broker workers (``python -m repro.runtime worker``) sharing
  ``REPRO_CACHE_DIR`` — see ``docs/runtime.md``. Ordering and values are
  deterministic — parallel and distributed runs are bit-identical to
  serial ones. ``REPRO_SCALE`` only selects the grid each spec resolves;
  it composes freely with the flags (each scale's runs are distinct cache
  entries, since the workload scale is part of the key). Option
  precedence (explicit kwargs/flags beat ``REPRO_*`` beat defaults) is
  asserted in :func:`repro.runtime.resolve_options`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.tables import format_table
from ..envopts import resolve
from ..workloads.profiles import workload_set


def workload_names(set_name: str | None = None) -> tuple[str, ...]:
    """Workload names every experiment iterates, in paper order.

    Resolved at call time (mirroring :func:`get_scale`): defaults to the
    six Table II equivalents, ``REPRO_WORKLOAD_SET=all`` (or
    ``extended``) sweeps the extra scenario profiles — the paper-figure
    grids are untouched unless a run opts in.
    """
    return tuple(p.name for p in workload_set(set_name))


@dataclass(frozen=True)
class ExperimentScale:
    """How big an experiment run should be."""

    name: str
    #: Workload scale factor (footprint and trace length together).
    workload_scale: float
    #: LLC latency sweep points (Figures 2, 5).
    latency_points: tuple[int, ...]
    #: BTB sizes for the Figure 5 sweep.
    btb_sizes: tuple[int, ...]
    #: FDIP BTB sizes for the Figure 3 breakdown.
    fig3_btb_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.workload_scale <= 0:
            raise ValueError("workload scale must be positive")


SCALES: dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        name="quick",
        workload_scale=0.25,
        latency_points=(1, 30, 70),
        btb_sizes=(2048, 8192, 32768),
        fig3_btb_sizes=(2048, 8192),
    ),
    "default": ExperimentScale(
        name="default",
        workload_scale=1.0,
        latency_points=(1, 10, 30, 50, 70),
        btb_sizes=(2048, 8192, 32768),
        fig3_btb_sizes=(2048, 4096, 8192, 32768),
    ),
    "full": ExperimentScale(
        name="full",
        workload_scale=1.0,
        latency_points=(1, 10, 20, 30, 40, 50, 60, 70),
        btb_sizes=(2048, 4096, 8192, 16384, 32768),
        fig3_btb_sizes=(2048, 4096, 8192, 16384, 32768),
    ),
}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a scale by argument, ``REPRO_SCALE`` env var, or default."""
    return SCALES[resolve("REPRO_SCALE", name)]


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    """One regenerated exhibit: a titled table plus free-form notes."""

    exhibit: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: How the table prints floats; the exhibit's render sets it.
    float_fmt: str = "{:.3f}"

    def to_table(self) -> str:
        text = format_table(
            self.headers, self.rows, title=self.title, float_fmt=self.float_fmt
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def column(self, header: str) -> list[object]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_for(self, label: object) -> list[object]:
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"no row labelled {label!r} in {self.exhibit}")
