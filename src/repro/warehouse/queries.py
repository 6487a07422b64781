"""Canned warehouse queries: contour and sensitivity.

Each query renders a Markdown table (pipe syntax — pasted verbatim into
CI step summaries) straight from the consolidated SQLite snapshot. No
simulation runs here: the grid geometry comes from the sweep registry
(:mod:`repro.experiments.sweeps`), which yields the same content-addressed
``(workload, scale token, config digest)`` keys the runtime caches under,
and every key is answered by a warehouse lookup.

Tier isolation is enforced in the lookup SQL: among the rows for a
key, only rows under the running code's schema tags answer (a stale
tag's row was computed by other code), and ``exact`` cells always
outrank ``analytic`` ones (an estimate can never shadow a measured
result). Cells that used any analytic estimate
are marked with ``~`` and the table footer reports the worst combined
relative-error bound (:func:`repro.analytic.model.combined_speedup_bound`),
so an estimated number is never presented as a measured one.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analytic.model import combined_speedup_bound
from ..runtime import SimJob
from ..runtime.cache import ANALYTIC_SCHEMA_TAG
from ..runtime.cache import SCHEMA_TAG as ENGINE_SCHEMA_TAG
from ..stats import geometric_mean

if TYPE_CHECKING:  # pragma: no cover - cycle guard (sweeps import runtime)
    from ..experiments.common import ExperimentScale
    from ..experiments.grid import Grid, SweepPoint

#: A rendered contour cell for (mechanism, knob settings).
CellFn = Callable[[str, tuple[tuple[str, object], ...]], str]

#: Rendered for a grid cell with no (complete) warehouse answer.
MISSING = "—"

#: Appended to a cell value that involved at least one analytic estimate.
ANALYTIC_MARK = "~"


# ---------------------------------------------------------------------------
# Cell lookup (the tier-isolation boundary)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellView:
    """The row a key resolves to, after tier/schema preference."""

    mechanism: str
    ipc: float | None
    fidelity: str
    rel_err_bound: float


def lookup_cell(
    conn: sqlite3.Connection, workload: str, scale: str, digest: str
) -> CellView | None:
    """The best row for one content-addressed key.

    Only rows under the running code's tags answer: a row of a stale
    engine or model tag was computed by other code, so a key with only
    stale rows has no answer. Of the (at most two) current rows, exact
    beats analytic — the tier-isolation invariant, at the SQL layer.
    """
    row = conn.execute(
        "SELECT mechanism, ipc, fidelity, analytic_rel_err_bound FROM cells"
        " WHERE workload = ? AND scale = ? AND config_digest = ?"
        " AND schema_tag IN (?, ?)"
        " ORDER BY (fidelity = 'exact') DESC LIMIT 1",
        (workload, scale, digest, ENGINE_SCHEMA_TAG, ANALYTIC_SCHEMA_TAG),
    ).fetchone()
    if row is None:
        return None
    ipc = float(row[1]) if row[1] is not None else None
    return CellView(
        mechanism=str(row[0]),
        ipc=ipc,
        fidelity=str(row[2]),
        rel_err_bound=float(row[3]),
    )


@dataclass(frozen=True)
class GridValue:
    """One aggregated grid cell: a gmean speedup plus its provenance."""

    value: float
    analytic: bool
    #: Worst combined rel-err bound across the workloads (0.0 if exact).
    bound: float

    def render(self) -> str:
        mark = ANALYTIC_MARK if self.analytic else ""
        return f"{self.value:.4f}{mark}"


def _point_value(
    conn: sqlite3.Connection,
    point: SweepPoint,
    workloads: tuple[str, ...],
    workload_scale: float,
    include_baseline: bool,
) -> GridValue | None:
    """Gmean metric of one grid point across its workloads, or None.

    With baselines: per-workload speedup (mechanism IPC over the matched
    no-prefetch baseline IPC); without: plain IPC. A point is complete
    only if *every* workload answers — a partial gmean would not be
    comparable across the grid.
    """
    values: list[float] = []
    analytic = False
    bound = 0.0
    for name in workloads:
        mech_key = SimJob(name, point.config(), workload_scale).key
        mech = lookup_cell(conn, *mech_key)
        if mech is None or mech.ipc is None or mech.ipc <= 0:
            return None
        if include_baseline:
            base_key = SimJob(name, point.baseline(), workload_scale).key
            base = lookup_cell(conn, *base_key)
            if base is None or base.ipc is None or base.ipc <= 0:
                return None
            values.append(mech.ipc / base.ipc)
            if mech.fidelity == "analytic" or base.fidelity == "analytic":
                analytic = True
                bound = max(
                    bound,
                    combined_speedup_bound(mech.rel_err_bound, base.rel_err_bound),
                )
        else:
            values.append(mech.ipc)
            if mech.fidelity == "analytic":
                analytic = True
                bound = max(bound, mech.rel_err_bound)
    return GridValue(value=geometric_mean(values), analytic=analytic, bound=bound)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _markdown_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _footer(values: list[GridValue | None]) -> list[str]:
    present = [v for v in values if v is not None]
    notes: list[str] = []
    bounds = [v.bound for v in present if v.analytic]
    if bounds:
        notes.append(
            f"`{ANALYTIC_MARK}` cell uses analytic estimates "
            f"(worst combined rel. err bound {max(bounds):.4f})"
        )
    if len(present) < len(values):
        notes.append(f"`{MISSING}` cell has no consolidated result yet")
    return [""] + [f"> {n}" for n in notes] if notes else []


# ---------------------------------------------------------------------------
# The canned queries
# ---------------------------------------------------------------------------


def render_contour(
    conn: sqlite3.Connection,
    sweep: str,
    scale: str | None = None,
    workload_set: str | None = None,
) -> str:
    """The per-mechanism speedup table over a sweep's knob grid.

    Each of the sweep's products renders in turn. For two axes (the
    dense latency × BTB grid) each mechanism gets a matrix — first axis
    down, second axis across. One axis renders as axis-points ×
    mechanisms; no axes as one row per mechanism.
    """
    from ..experiments.common import get_scale
    from ..experiments.grid import SweepPoint
    from ..experiments.sweeps import get_sweep

    spec = get_sweep(sweep)
    exp_scale = get_scale(scale)
    workloads = spec.workloads(workload_set)
    points = spec.points(exp_scale)
    metric = "gmean speedup" if spec.include_baseline else "gmean ipc"
    lines = [
        f"### contour `{spec.name}` — {metric} over "
        f"{len(workloads)} workload(s), scale `{exp_scale.name}`",
        "",
    ]
    values = {
        point: _point_value(
            conn, point, workloads, exp_scale.workload_scale, spec.include_baseline
        )
        for point in points
    }

    def cell(mechanism: str, settings: tuple[tuple[str, object], ...]) -> str:
        value = values[SweepPoint(mechanism, settings)]
        return value.render() if value is not None else MISSING

    for grid in spec.grids():
        lines.extend(_contour_tables(grid, exp_scale, metric, cell))
    lines.extend(_footer(list(values.values())))
    return "\n".join(lines).rstrip() + "\n"


def _contour_tables(
    grid: Grid, exp_scale: ExperimentScale, metric: str, cell: CellFn
) -> list[str]:
    """One product's tables: a matrix per mechanism for two axes, points
    × mechanisms for one, a row per mechanism for none."""
    from ..experiments.grid import _axis_points

    lines: list[str] = []
    axes = grid.axes
    if len(axes) == 2:
        (row_knob, _), (col_knob, _) = axes
        row_points = _axis_points(axes[0], exp_scale)
        col_points = _axis_points(axes[1], exp_scale)
        for mechanism in grid.mechanisms:
            lines.append(f"#### {mechanism}")
            headers = [f"{row_knob} \\ {col_knob}"] + [str(c) for c in col_points]
            table = [
                [str(r)]
                + [cell(mechanism, ((row_knob, r), (col_knob, c))) for c in col_points]
                for r in row_points
            ]
            lines.extend(_markdown_table(headers, table))
            lines.append("")
    elif len(axes) == 1:
        knob = axes[0][0]
        axis_points = _axis_points(axes[0], exp_scale)
        headers = [knob] + list(grid.mechanisms)
        table = [
            [str(p)] + [cell(m, ((knob, p),)) for m in grid.mechanisms]
            for p in axis_points
        ]
        lines.extend(_markdown_table(headers, table))
        lines.append("")
    else:
        table = [[m, cell(m, ())] for m in grid.mechanisms]
        lines.extend(_markdown_table(["mechanism", metric], table))
        lines.append("")
    return lines


def render_sensitivity(
    conn: sqlite3.Connection,
    sweep: str = "ablation-matrix",
    scale: str | None = None,
    workload_set: str | None = None,
) -> str:
    """Per-workload × per-mechanism speedup matrix for an axis-free sweep.

    The cross-profile view of the ablation matrix: how sensitive each
    workload profile is to each mechanism, with a gmean summary row.
    Sweeps with knob axes have a geometry this table cannot express —
    use ``contour`` for those.
    """
    from ..errors import ConfigError
    from ..experiments.common import get_scale
    from ..experiments.sweeps import get_sweep

    spec = get_sweep(sweep)
    if spec.axis_names():
        raise ConfigError(
            f"sweep {spec.name!r} has knob axes; `sensitivity` renders "
            f"axis-free sweeps — use `contour {spec.name}` instead"
        )
    exp_scale = get_scale(scale)
    workloads = spec.workloads(workload_set)
    metric = "speedup" if spec.include_baseline else "ipc"
    lines = [
        f"### sensitivity `{spec.name}` — per-workload {metric}, "
        f"scale `{exp_scale.name}`",
        "",
    ]
    points = {p.mechanism: p for p in spec.points(exp_scale)}
    headers = ["workload"] + list(points)
    table: list[list[str]] = []
    rendered: list[GridValue | None] = []
    per_mech: dict[str, list[float]] = {m: [] for m in points}
    complete: dict[str, bool] = {m: True for m in points}
    for name in workloads:
        row = [name]
        for mechanism in points:
            value = _point_value(
                conn,
                points[mechanism],
                (name,),
                exp_scale.workload_scale,
                spec.include_baseline,
            )
            rendered.append(value)
            if value is None:
                complete[mechanism] = False
                row.append(MISSING)
            else:
                per_mech[mechanism].append(value.value)
                row.append(value.render())
        table.append(row)
    if len(workloads) > 1:
        gmean_row = ["**gmean**"]
        for mechanism in points:
            if complete[mechanism] and per_mech[mechanism]:
                gmean_row.append(f"{geometric_mean(per_mech[mechanism]):.4f}")
            else:
                gmean_row.append(MISSING)
        table.append(gmean_row)
    lines.extend(_markdown_table(headers, table))
    lines.append("")
    lines.extend(_footer(rendered))
    return "\n".join(lines).rstrip() + "\n"


#: Query name -> renderer; the package's ``QUERY_NAMES`` is its keys.
QUERIES = {
    "contour": render_contour,
    "sensitivity": render_sensitivity,
}
