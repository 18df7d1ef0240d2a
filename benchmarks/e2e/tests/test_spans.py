"""Span self time: a span's duration minus what its children cover."""

import json
import os
import tempfile
import unittest

from benchmarks.e2e.spans import Span, SpanRecorder, child_coverage, covered, self_time, self_times
from benchmarks.e2e.tests import scratch


def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, op_id=0, workload="w", template="t")


class SelfTimeTest(unittest.TestCase):
    def test_union_does_not_count_overlap_twice(self):
        self.assertAlmostEqual(covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0)
        self.assertAlmostEqual(covered([(0.0, 5.0), (1.0, 2.0)]), 5.0)
        self.assertEqual(covered([]), 0.0)

    def test_children_made_before_the_parent_still_subtract(self):
        # the walk calls the inner layer first: the child's interval lies
        # before the parent's, and the parent's call repeats its work
        child = _span(1, "xcution.execute_plan", 0.0, 4.0)
        parent = _span(2, "core.execute", 4.0, 9.0)
        self.assertAlmostEqual(self_time(parent, [child]), 1.0)

    def test_never_negative(self):
        slow_child = _span(1, "xcution.execute_plan", 0.0, 10.0)  # paid a cold build
        parent = _span(2, "core.execute", 10.0, 13.0)
        self.assertEqual(self_time(parent, [slow_child]), 0.0)

    def test_tree(self):
        spans = [
            _span(0, "op", 0.0, 20.0),
            _span(1, "sql.parse", 0.0, 1.0, parent=4),
            _span(2, "xcution.execute_plan", 1.0, 5.0, parent=3),
            _span(3, "core.execute", 5.0, 10.0, parent=4),
            _span(4, "core.query", 10.0, 17.0, parent=0),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 1.0)   # leaf: all of it
        self.assertAlmostEqual(own[3], 1.0)   # 5 - 4
        self.assertAlmostEqual(own[4], 1.0)   # 7 - (1 + 5)
        self.assertAlmostEqual(child_coverage(spans, "core.query"), 6.0 / 7.0)


class RecorderTest(unittest.TestCase):
    def test_records_in_memory_and_writes_jsonl_at_the_end(self):
        ticks = iter(range(100))
        recorder = SpanRecorder("bi_hot", clock=lambda: float(next(ticks)))
        with recorder.span("core.query", op_id=7, template="Q3") as outer:
            with recorder.span("core.execute", op_id=7, template="Q3") as inner:
                pass
        inner.parent = outer.span_id
        self.assertEqual([(s.start, s.end) for s in recorder.spans], [(0.0, 3.0), (1.0, 2.0)])
        with tempfile.TemporaryDirectory(dir=scratch()) as directory:
            path = os.path.join(directory, "trace.jsonl")
            recorder.write_jsonl(path)
            with open(path, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
        self.assertEqual(lines[1]["parent"], 0)
        self.assertEqual(
            sorted(lines[0]),
            ["end", "name", "op_id", "parent", "span_id", "start", "template", "workload"],
        )


if __name__ == "__main__":
    unittest.main()
