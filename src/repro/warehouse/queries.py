"""Canned warehouse queries: contour and sensitivity.

Each query renders a Markdown table (pipe syntax — pasted verbatim into
CI step summaries) straight from the consolidated SQLite snapshot. No
simulation runs here: the grid geometry comes from the sweep registry
(:mod:`repro.experiments.sweeps`), which yields the same content-addressed
``(workload, scale token, config digest)`` keys the runtime caches under,
and every key is answered by a warehouse lookup.

Tier isolation is enforced in the lookup SQL: among the active rows for a
key, ``exact`` cells always outrank ``analytic`` ones (an estimate can
never shadow a measured result), current-schema rows outrank stale ones,
and ties break deterministically. Cells that used any analytic estimate
are marked with ``~`` and the table footer reports the worst combined
relative-error bound (:func:`repro.analytic.model.combined_speedup_bound`),
so an estimated number is never presented as a measured one.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..analytic.model import combined_speedup_bound
from ..runtime import SimJob
from ..stats import geometric_mean
from .core import ANALYTIC_SCHEMA_TAG, ENGINE_SCHEMA_TAG

if TYPE_CHECKING:  # pragma: no cover - cycle guard (sweeps import runtime)
    from ..experiments.sweeps import SweepPoint

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
    """The best active row for one content-addressed key.

    Preference order: exact over analytic (the PR 8 isolation invariant,
    now at the SQL layer), current schema tags over stale ones, then most
    recently seen, then lexically-latest tag — every clause deterministic,
    so repeated queries over the same snapshot are bit-identical.
    """
    row = conn.execute(
        "SELECT mechanism, ipc, fidelity, analytic_rel_err_bound FROM cells"
        " WHERE workload = ? AND scale = ? AND config_digest = ? AND active = 1"
        " ORDER BY (fidelity = 'exact') DESC, (schema_tag IN (?, ?)) DESC,"
        " last_seen DESC, schema_tag DESC LIMIT 1",
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

    For a two-axis sweep (the dense latency × BTB grid) each mechanism
    gets a matrix — first axis down, second axis across. One axis renders
    as axis-points × mechanisms; no axes as one row per mechanism.
    """
    from ..experiments.common import get_scale
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
    values: dict[tuple[str, tuple[object, ...]], GridValue | None] = {}
    for point in points:
        values[(point.mechanism, tuple(v for _, v in point.settings))] = _point_value(
            conn, point, workloads, exp_scale.workload_scale, spec.include_baseline
        )

    def cell(mechanism: str, settings: tuple[object, ...]) -> str:
        value = values[(mechanism, settings)]
        return value.render() if value is not None else MISSING

    axes = spec.axes
    if len(axes) == 2:
        from ..experiments.sweeps import _axis_points

        rows_axis, cols_axis = axes
        row_points = _axis_points(rows_axis, exp_scale)
        col_points = _axis_points(cols_axis, exp_scale)
        for mechanism in spec.mechanisms:
            lines.append(f"#### {mechanism}")
            headers = [f"{rows_axis[0]} \\ {cols_axis[0]}"] + [
                str(c) for c in col_points
            ]
            table = [
                [str(r)] + [cell(mechanism, (r, c)) for c in col_points]
                for r in row_points
            ]
            lines.extend(_markdown_table(headers, table))
            lines.append("")
    elif len(axes) == 1:
        from ..experiments.sweeps import _axis_points

        axis_points = _axis_points(axes[0], exp_scale)
        headers = [axes[0][0]] + list(spec.mechanisms)
        table = [
            [str(p)] + [cell(m, (p,)) for m in spec.mechanisms] for p in axis_points
        ]
        lines.extend(_markdown_table(headers, table))
        lines.append("")
    else:
        headers = ["mechanism", metric]
        table = [[m, cell(m, ())] for m in spec.mechanisms]
        lines.extend(_markdown_table(headers, table))
        lines.append("")
    lines.extend(_footer(list(values.values())))
    return "\n".join(lines).rstrip() + "\n"


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
    if spec.axes:
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
    headers = ["workload"] + list(spec.mechanisms)
    points = {p.mechanism: p for p in spec.points(exp_scale)}
    table: list[list[str]] = []
    rendered: list[GridValue | None] = []
    per_mech: dict[str, list[float]] = {m: [] for m in spec.mechanisms}
    complete: dict[str, bool] = {m: True for m in spec.mechanisms}
    for name in workloads:
        row = [name]
        for mechanism in spec.mechanisms:
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
        for mechanism in spec.mechanisms:
            if complete[mechanism] and per_mech[mechanism]:
                gmean_row.append(f"{geometric_mean(per_mech[mechanism]):.4f}")
            else:
                gmean_row.append(MISSING)
        table.append(gmean_row)
    lines.extend(_markdown_table(headers, table))
    lines.append("")
    lines.extend(_footer(rendered))
    return "\n".join(lines).rstrip() + "\n"


#: Query name -> renderer; RPL006 pins this against ``QUERY_NAMES`` in
#: the package ``__init__`` so the CLI, docs, and registry cannot drift.
QUERIES = {
    "contour": render_contour,
    "sensitivity": render_sensitivity,
}
