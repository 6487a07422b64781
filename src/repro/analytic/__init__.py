"""Two-tier fidelity: a calibrated closed-form fast path for sweeps.

The exact engine answers one cell in seconds; a dense latency × BTB
grid has hundreds per workload and the ROADMAP's north star wants
millions. This package adds the second tier: a per-series closed-form
model (:mod:`.model`) calibrated from a small anchor set of exact cells
(:mod:`.planner`), whose synthesized records live under their own schema
tag (:mod:`.store`) so they can never shadow exact results.

Three fidelity tiers (``--fidelity`` / ``REPRO_FIDELITY``, resolved with
the usual flag > env > default precedence in
:func:`repro.runtime.runner.resolve_options`):

* ``exact`` — every cell runs on the cycle-accurate engine (default;
  bit-identical to every previous release),
* ``analytic`` — per series: anchors run exact, every other cell is
  synthesized by the fitted model (exact fallback where the model
  refuses to fit),
* ``hybrid`` — like ``analytic``, but series whose self-reported error
  bound exceeds ``REPRO_ANALYTIC_MAX_ERR`` and cells outside the anchor
  hull are re-dispatched to the exact engine.
"""

#: The fidelity tiers, in escalating-trust order. The authoritative
#: registry the ``REPRO_FIDELITY`` envopts choices must mirror
#: (``registry_drift`` in tests/invariants.py checks it).
FIDELITY_NAMES = ("exact", "analytic", "hybrid")

from .model import (  # noqa: E402
    AnalyticFitError,
    AnchorPoint,
    SeriesFit,
    combined_speedup_bound,
    fit_series,
    is_analytic,
    reported_bound,
)
from .planner import (  # noqa: E402
    DEFAULT_ANCHOR_SPEC,
    SeriesPlan,
    cell_axes,
    job_pressure,
    parse_anchor_spec,
    plan_series,
    plan_summary,
    series_key,
)
from .store import (  # noqa: E402
    ANALYTIC_SCHEMA_TAG,
    AnalyticStore,
    prune_analytic,
    scan_analytic,
)

__all__ = [
    "ANALYTIC_SCHEMA_TAG",
    "DEFAULT_ANCHOR_SPEC",
    "FIDELITY_NAMES",
    "AnalyticFitError",
    "AnalyticStore",
    "AnchorPoint",
    "SeriesFit",
    "SeriesPlan",
    "cell_axes",
    "combined_speedup_bound",
    "fit_series",
    "is_analytic",
    "job_pressure",
    "parse_anchor_spec",
    "plan_series",
    "plan_summary",
    "prune_analytic",
    "reported_bound",
    "scan_analytic",
    "series_key",
]
