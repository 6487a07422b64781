"""The traced run: in-memory spans around calls into each layer.

Only ``--trace 1`` imports this module's hooks; the untraced run installs
nothing. Spans are taken from the benchmark's own files, at the layer
boundaries the simulator exposes:

* ``workloads`` — ``build_cfg`` / ``generate_trace`` as ``load_workload``
  calls them;
* ``core`` — the ``tick`` of every entry in ``FrontEndEngine.stages``
  (through a delegating proxy, the pattern ``repro.core.profiling`` uses)
  and the methods of the engine's ``predictor``, ``btb``, ``mem`` and
  ``prefetcher`` objects, which are wrapped per instance before the
  stages bind them; the ``frontend`` predecode calls are swapped in for
  the same stage construction only;
* ``analytic`` / ``runtime`` — the planner, fit and predict entry points,
  ``ExperimentRuntime.run_many`` and ``execute_job``.

Fine-grained calls (millions per cell) are aggregated per span name as
they close — calls, total and self time — and summarised per cell;
coarse spans are kept whole as ``(id, name, start, end, parent, cell)``.
Both are written out when the run ends. A span's self time is its
duration minus the time its child spans cover; :func:`self_times`
computes that from recorded spans, and the online accumulation in
:meth:`Tracer.wrap` computes the same for strictly nested calls.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Stage ``name`` prefix -> the stage key used in metric names.
STAGE_KEYS = {
    "fill": "fill",
    "squash": "squash",
    "retire": "retire",
    "decode": "decode",
    "fetch": "fetch",
    "bpu": "bpu",
    "prefetch": "prefetch_issue",
}

#: Engine component methods traced per instance: (ctx attribute, method, span).
COMPONENT_METHODS = (
    ("btb", "lookup", "branch.btb.lookup"),
    ("btb", "insert", "branch.btb.insert"),
    ("mem", "demand_access", "memory.demand_access"),
    ("mem", "prefetch_probe", "memory.prefetch_probe"),
    ("mem", "drain_arrivals", "memory.drain_arrivals"),
    ("prefetcher", "next_prefetch", "prefetch.next_prefetch"),
    ("prefetcher", "on_retired_block", "prefetch.on_retired_block"),
)


def stage_key(stage_name: str) -> str:
    return STAGE_KEYS[stage_name.split("+")[0].split(":")[0]]


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Self time of every recorded span: duration minus child coverage.

    Children are the spans whose ``parent`` is the span's ``id``; the part
    of the parent's interval they cover is the length of the union of
    their intervals, clipped to the parent, so overlapping children are
    not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span["id"], [])):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


class _Stage:
    """A stage whose ``tick`` is traced; everything else delegates."""

    def __init__(self, inner: Any, tick: Callable[..., Any]):
        self._inner = inner
        self.tick = tick

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: The cell id stamped on recorded spans (set by the workload loop).
        self.cell: str | None = None
        #: Engines built while this is true get their layers traced.
        self.engines = False
        #: span name -> [calls, total seconds, self seconds].
        self.stats: dict[str, list[float]] = {}
        #: Coarse spans, kept whole.
        self.spans: list[dict[str, Any]] = []
        #: Per-cell deltas of the fine-grained stats.
        self.cells: list[dict[str, Any]] = []
        #: Open frames, innermost last: [child seconds, recorded span id].
        self._stack: list[list[Any]] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], record: bool = False
    ) -> Callable[..., Any]:
        """A pass-through that times every call of ``fn`` as span ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        if not record:

            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = [0.0, None]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur

            return traced

        def recorded(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return recorded

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A recorded span around a block of the benchmark's own code."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        span_id = len(self.spans)
        frame = [0.0, span_id]
        record = {"id": span_id, "name": name, "parent": parent, "cell": self.cell}
        self.spans.append(record)
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - start
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            record.update(start=start, end=end, self_s=dur - frame[0])

    @contextlib.contextmanager
    def cell_span(self, cell: str) -> Iterator[None]:
        """Trace one cell's engine: a recorded span plus a stats summary."""
        before = {name: list(stat) for name, stat in self.stats.items()}
        self.cell, self.engines = cell, True
        try:
            with self.span("cell"):
                yield
        finally:
            self.engines = False
            summary = {}
            for name, (calls, total, own) in self.stats.items():
                prev = before.get(name, [0, 0.0, 0.0])
                if name != "cell" and calls != prev[0]:
                    summary[name] = [calls - prev[0], total - prev[1], own - prev[2]]
            self.cells.append({"cell": cell, "spans": summary})
            self.cell = None

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0])[0])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, [0, 0.0, 0.0])[2])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, [0, 0.0, 0.0])[1])

    def write(self, path: Path) -> None:
        """Dump recorded spans and per-cell summaries as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"kind": "span", **span}) + "\n")
            for cell in self.cells:
                fh.write(json.dumps({"kind": "cell", **cell}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every hook for the duration of the block, then restore."""
    import repro.analytic as analytic
    import repro.core.engine as engine_mod
    import repro.core.stages.bpu as bpu_mod
    import repro.core.stages.fill as fill_mod
    import repro.runtime.runner as runner
    import repro.workloads.workload as workload_mod
    from repro.analytic.model import SeriesFit
    from repro.branch.predictors.tage import TagePredictor

    compose = engine_mod.compose_stages
    predecode_block = fill_mod.predecode_block
    boomerang_fill = bpu_mod.boomerang_fill

    def traced_compose(ctx: Any) -> Any:
        if not tracer.engines:
            return compose(ctx)
        if isinstance(ctx.predictor, TagePredictor):
            ctx.predictor.predict = tracer.wrap("branch.tage.predict", ctx.predictor.predict)
            ctx.predictor.update = tracer.wrap("branch.tage.update", ctx.predictor.update)
        for attr, method, name in COMPONENT_METHODS:
            obj = getattr(ctx, attr)
            if obj is not None:
                setattr(obj, method, tracer.wrap(name, getattr(obj, method)))
        # The stages bind the predecode helpers when constructed, so the
        # traced versions are visible to this engine's stages only.
        fill_mod.predecode_block = tracer.wrap("frontend.predecode", predecode_block)
        bpu_mod.boomerang_fill = tracer.wrap("frontend.predecode", boomerang_fill)
        try:
            stages = compose(ctx)
        finally:
            fill_mod.predecode_block = predecode_block
            bpu_mod.boomerang_fill = boomerang_fill
        return tuple(
            _Stage(s, tracer.wrap(f"core.stages.{stage_key(s.name)}", s.tick))
            for s in stages
        )

    patches: list[tuple[Any, str, Any]] = [
        (engine_mod, "compose_stages", traced_compose),
        (workload_mod, "build_cfg",
         tracer.wrap("workloads.build_cfg", workload_mod.build_cfg, record=True)),
        (workload_mod, "generate_trace",
         tracer.wrap("workloads.generate_trace", workload_mod.generate_trace, record=True)),
        (runner, "execute_job",
         tracer.wrap("runtime.execute_job", runner.execute_job, record=True)),
        (runner.ExperimentRuntime, "run_many",
         tracer.wrap("runtime.run_many", runner.ExperimentRuntime.run_many, record=True)),
        (analytic, "plan_series",
         tracer.wrap("analytic.plan", analytic.plan_series, record=True)),
        (analytic, "fit_series",
         tracer.wrap("analytic.fit", analytic.fit_series, record=True)),
        (SeriesFit, "predict", tracer.wrap("analytic.predict", SeriesFit.predict)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield tracer
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)
