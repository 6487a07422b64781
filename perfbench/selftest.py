"""The benchmark's own tests: span arithmetic, the tail rule, the contract.

Run with ``python3 perfbench/selftest.py`` (stdlib ``unittest``; the
module name keeps it out of the repository's pytest collection).
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from benchlib import SRC, spearman, tail, units_for  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        for n in (11, 20, 37, 110):
            values = [float(v) for v in range(n)]
            value, pct, count = tail(values)
            self.assertEqual(count, n)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(tail(values)[0], 1.0)
        self.assertEqual(tail(list(reversed(values)))[0], 1.0)

    def test_ten_or_fewer_fall_back_to_median(self):
        self.assertEqual(tail([1.0, 2.0, 3.0]), (2.0, 50.0, 3))
        self.assertEqual(tail([float(v) for v in range(10)]), (4.5, 50.0, 10))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            tail([])


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
            {"id": 2, "parent": 0, "start": 4.0, "end": 6.0},
            {"id": 3, "parent": 2, "start": 4.5, "end": 5.0},
        ]
        self.assertEqual(self_times(spans), {0: 6.0, 1: 2.0, 2: 1.5, 3: 0.5})

    def test_overlapping_children_counted_once(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},
        ]
        self.assertEqual(self_times(spans)[0], 6.0)

    def test_children_clipped_to_parent(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 8.0, "end": 12.0},
        ]
        self.assertEqual(self_times(spans)[0], 8.0)

    def test_online_accumulation_matches_recorded_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def leaf(seconds: float) -> None:
            clock.advance(seconds)

        def mid(parts: list[float]) -> None:
            clock.advance(0.5)
            for seconds in parts:
                traced_leaf(seconds)
            clock.advance(0.25)

        traced_leaf = tracer.wrap("leaf", leaf)
        traced_mid = tracer.wrap("mid", mid)
        with tracer.span("outer"):
            clock.advance(1.0)
            traced_mid([2.0, 3.0])
            traced_leaf(4.0)
        self.assertEqual(tracer.calls("leaf"), 3)
        self.assertEqual(tracer.self_s("leaf"), 9.0)
        self.assertEqual(tracer.self_s("mid"), 0.75)
        self.assertEqual(tracer.total_s("mid"), 5.75)
        self.assertEqual(tracer.self_s("outer"), 1.0)
        self.assertEqual(tracer.total_s("outer"), 10.75)
        # Self times partition the outermost span's duration.
        total = sum(tracer.self_s(name) for name in ("outer", "mid", "leaf"))
        self.assertEqual(total, tracer.total_s("outer"))

    def test_recorded_spans_nest_and_agree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        step = tracer.wrap("step", lambda s: clock.advance(s), record=True)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                step(2.0)
                clock.advance(0.5)
            step(3.0)
        spans = {span["name"] + str(span["id"]): span for span in tracer.spans}
        self.assertEqual(spans["inner1"]["parent"], 0)
        self.assertEqual(spans["step2"]["parent"], 1)
        self.assertEqual(spans["step3"]["parent"], 0)
        offline = self_times(tracer.spans)
        for span in tracer.spans:
            self.assertAlmostEqual(offline[span["id"]], span["self_s"])
        self.assertEqual(offline[0], 1.0)
        self.assertEqual(offline[1], 0.5)

    def test_cell_summary_holds_the_cell_delta(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))
        leaf()
        with tracer.cell_span("a"):
            self.assertTrue(tracer.engines)
            leaf()
            leaf()
        self.assertFalse(tracer.engines)
        self.assertEqual(tracer.cells, [{"cell": "a", "spans": {"leaf": [2, 2.0, 2.0]}}])
        self.assertEqual(tracer.spans[0]["cell"], "a")


class Helpers(unittest.TestCase):
    def test_spearman(self):
        self.assertAlmostEqual(spearman([1, 2, 3, 4], [10, 20, 30, 40]), 1.0)
        self.assertAlmostEqual(spearman([1, 2, 3, 4], [4, 3, 2, 1]), -1.0)
        self.assertAlmostEqual(spearman([1, 1, 2], [1, 2, 3]), 0.8660254037844387)
        self.assertEqual(spearman([1, 1], [1, 2]), 0.0)

    def test_units_for_rounds_and_runs_at_least_one(self):
        self.assertEqual(units_for(30, 1.0), 30)
        self.assertEqual(units_for(30, 28.0), 1)
        self.assertEqual(units_for(30, 22.0), 1)
        self.assertEqual(units_for(1, 28.0), 1)
        self.assertEqual(units_for(60, 28.0), 2)

    def test_cell_order_is_balanced(self):
        sys.path.insert(0, str(SRC))
        from matrix import cell_order

        order = cell_order(10, 8)
        self.assertEqual(len(set(order)), 80)
        for start in range(0, 80, 10):
            chunk = order[start:start + 10]
            self.assertEqual({i for i, _ in chunk}, set(range(10)))
            counts = [sum(m == mech for _, m in chunk) for mech in range(8)]
            self.assertLessEqual(max(counts) - min(counts), 1)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
