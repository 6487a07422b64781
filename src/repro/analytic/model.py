"""Closed-form per-series performance model with an empirical error bound.

The exact engine's response over the (LLC round trip, BTB capacity) plane
is smooth for a fixed (workload, mechanism, everything-else) *series*,
but not linear: CPI grows convexly in the round trip ``L``. On oracle's
``none`` series at quick scale, CPI climbs 0.019 per cycle of ``L``
between 1 and 40 and 0.023 between 40 and 70, while log(CPI) climbs
0.0073 and 0.0071 — nearly straight. So each series is fit with
ordinary least squares on a four-term basis in **log-CPI** space::

    CPI(L, p) = exp(c0 + c1·L + c2·p + c3·L·p)

where ``p`` is the BTB-pressure feature
(:meth:`~repro.workloads.profiles.WorkloadProfile.btb_pressure`).
Latency and pressure scale CPI rather than add to it, and the ``L·p``
term lets BTB-miss-induced stalls, themselves paid in round trips,
steepen the latency slope. The fit is calibrated against a small grid
of **anchor** cells the exact engine actually simulated (the lumos
idiom: a closed-form model with scaling factors fit from reference
points). Total stall cycles are fit linearly on the same basis;
retirement count and the stall seq/cond/uncond split are carried over
from the anchors (both are axis-invariant within a series to first
order).

**Error bound.** Each fit carries an empirical relative-error bound from
leave-one-out cross-validation over its own anchors: refit without one
anchor, predict it, record the relative CPI error; the bound is the worst
held-out error times a safety factor plus a floor. It is an *empirical*
bound — interpolated cells sit inside the anchor hull where the LOO
probes are hardest, ``tests/test_analytic.py`` asserts it holds against
exact ground truth for every mechanism, and ``scripts/analytic_audit.py``
measures realized error against it over every profile's dense column.
Speedups divide two modeled CPIs, so their bound composes
multiplicatively (:func:`combined_speedup_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.results import SimulationResult

#: Basis size of the per-series model (1, L, p, L·p).
N_FEATURES = 4

#: Multiplier applied to the worst leave-one-out error. LOO probes are
#: pessimistic for interpolation (the refit loses a hull corner), but a
#: bound is only as honest as its margin for the cells nobody held out.
_BOUND_SAFETY = 2.0

#: Additive floor so a suspiciously clean calibration (anchors that
#: happen to be collinear with the model) never reports a ~0% bound.
_BOUND_FLOOR = 0.01

#: The three stall counters the exact engine splits stalls into.
_STALL_KEYS = ("stall_seq", "stall_cond", "stall_uncond")


class AnalyticFitError(Exception):
    """A series cannot be modeled (degenerate anchors); run it exactly."""


@dataclass(frozen=True)
class AnchorPoint:
    """One calibrated reference cell: its axes and its exact result."""

    latency: float
    pressure: float
    result: SimulationResult


def _features(latency: float, pressure: float) -> tuple[float, ...]:
    return (1.0, latency, pressure, latency * pressure)


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting (stdlib-only)."""
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            raise AnalyticFitError(
                "singular normal equations: anchor axes do not span the basis"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in range(col + 1, n):
            factor = aug[row][col] / aug[col][col]
            for k in range(col, n + 1):
                aug[row][k] -= factor * aug[col][k]
    coeffs = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n] - sum(aug[row][k] * coeffs[k] for k in range(row + 1, n))
        coeffs[row] = acc / aug[row][row]
    return coeffs


def _lstsq(
    points: Sequence[tuple[float, float]], values: Sequence[float]
) -> tuple[float, ...]:
    """Least-squares coefficients via the normal equations (4×4 solve)."""
    xtx = [[0.0] * N_FEATURES for _ in range(N_FEATURES)]
    xty = [0.0] * N_FEATURES
    for (latency, pressure), value in zip(points, values):
        row = _features(latency, pressure)
        for i in range(N_FEATURES):
            xty[i] += row[i] * value
            for j in range(N_FEATURES):
                xtx[i][j] += row[i] * row[j]
    return tuple(_solve(xtx, xty))


def _dot(coeffs: tuple[float, ...], features: tuple[float, ...]) -> float:
    return sum(c * f for c, f in zip(coeffs, features))


def _loo_bound(
    points: Sequence[tuple[float, float]], log_cpis: Sequence[float]
) -> float:
    """Leave-one-out worst relative CPI error, safety-scaled and floored."""
    worst = 0.0
    for hold in range(len(points)):
        rest_points = [p for i, p in enumerate(points) if i != hold]
        rest_values = [v for i, v in enumerate(log_cpis) if i != hold]
        coeffs = _lstsq(rest_points, rest_values)
        predicted = math.exp(_dot(coeffs, _features(*points[hold])))
        actual = math.exp(log_cpis[hold])
        worst = max(worst, abs(predicted - actual) / actual)
    return worst * _BOUND_SAFETY + _BOUND_FLOOR


@dataclass(frozen=True)
class SeriesFit:
    """A calibrated series model: predict any cell on the series' plane."""

    workload: str
    mechanism: str
    #: Coefficients of log(CPI) on the four-term basis.
    cpi_coeffs: tuple[float, ...]
    stall_coeffs: tuple[float, ...]
    #: Retired-instruction count (axis-invariant: the measured trace
    #: window is fixed per workload+scale), carried from the anchors.
    retired: float
    #: Mean anchor shares splitting total stall into seq/cond/uncond.
    stall_fracs: tuple[float, float, float]
    #: Self-reported relative CPI error bound (LOO-derived, see module doc).
    rel_err_bound: float
    n_anchors: int
    latency_range: tuple[float, float]
    pressure_range: tuple[float, float]

    def in_hull(self, latency: float, pressure: float) -> bool:
        """Whether a cell interpolates (bounds only cover the anchor hull)."""
        lat_lo, lat_hi = self.latency_range
        pre_lo, pre_hi = self.pressure_range
        return lat_lo <= latency <= lat_hi and pre_lo <= pressure <= pre_hi

    def predict(self, latency: float, pressure: float) -> SimulationResult:
        """Synthesize one analytic cell result for these axes.

        The raw dict carries the same counters the sweep/experiment layer
        reads (cycles, retirement, the stall split) plus ``analytic``
        marker keys — the record is self-describing about its fidelity
        and its error bound wherever it travels.
        """
        row = _features(latency, pressure)
        cpi = math.exp(_dot(self.cpi_coeffs, row))
        stall = max(0.0, _dot(self.stall_coeffs, row))
        raw: dict[str, float] = {
            "cycles": cpi * self.retired,
            "retired_instrs": self.retired,
            "analytic": 1.0,
            "analytic_rel_err_bound": self.rel_err_bound,
        }
        for key, frac in zip(_STALL_KEYS, self.stall_fracs):
            raw[key] = stall * frac
        return SimulationResult(
            workload=self.workload, mechanism=self.mechanism, raw=raw
        )


def fit_series(
    workload: str, mechanism: str, anchors: Sequence[AnchorPoint]
) -> SeriesFit:
    """Calibrate one series model from its exact anchor results.

    Needs at least ``N_FEATURES + 1`` anchors so the leave-one-out
    refits stay determined; degenerate anchor geometry raises
    :class:`AnalyticFitError` (the caller falls back to exact runs).
    """
    if len(anchors) < N_FEATURES + 1:
        raise AnalyticFitError(
            f"need >= {N_FEATURES + 1} anchors to fit and cross-validate, "
            f"got {len(anchors)}"
        )
    points = [(a.latency, a.pressure) for a in anchors]
    log_cpis: list[float] = []
    stalls: list[float] = []
    for anchor in anchors:
        retired = anchor.result.instructions
        if retired <= 0 or anchor.result.cycles <= 0:
            raise AnalyticFitError(
                f"anchor for {workload!r}/{mechanism!r} has no positive CPI"
            )
        log_cpis.append(math.log(anchor.result.cycles / retired))
        stalls.append(float(anchor.result.stall_cycles))
    cpi_coeffs = _lstsq(points, log_cpis)
    stall_coeffs = _lstsq(points, stalls)
    rel_err_bound = _loo_bound(points, log_cpis)
    totals = [0.0, 0.0, 0.0]
    for anchor in anchors:
        for i, key in enumerate(_STALL_KEYS):
            totals[i] += float(anchor.result.raw.get(key, 0.0))
    grand = sum(totals)
    fracs = (
        tuple(t / grand for t in totals) if grand > 0.0 else (0.0, 0.0, 0.0)
    )
    retired_mean = sum(a.result.instructions for a in anchors) / len(anchors)
    lats = [a.latency for a in anchors]
    pressures = [a.pressure for a in anchors]
    return SeriesFit(
        workload=workload,
        mechanism=mechanism,
        cpi_coeffs=cpi_coeffs,
        stall_coeffs=stall_coeffs,
        retired=retired_mean,
        stall_fracs=(fracs[0], fracs[1], fracs[2]),
        rel_err_bound=rel_err_bound,
        n_anchors=len(anchors),
        latency_range=(min(lats), max(lats)),
        pressure_range=(min(pressures), max(pressures)),
    )


def is_analytic(result: SimulationResult) -> bool:
    """Whether a result was synthesized by the model (vs exact-engine)."""
    return bool(result.raw.get("analytic"))


def reported_bound(result: SimulationResult) -> float:
    """A result's self-reported relative CPI error bound (0 for exact)."""
    return float(result.raw.get("analytic_rel_err_bound", 0.0))


def combined_speedup_bound(mechanism_bound: float, baseline_bound: float) -> float:
    """Relative error bound of a ratio of two independently-bounded CPIs.

    ``speedup = CPI_base / CPI_mech``; if each CPI is within relative
    error ``b`` of truth, the ratio is within ``(1+b1)(1+b2) - 1``.
    """
    return (1.0 + mechanism_bound) * (1.0 + baseline_bound) - 1.0
