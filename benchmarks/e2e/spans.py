"""Spans recorded by the harness around its own calls into each layer.

The traced run walks one op through the layers by hand, innermost call
first: ``parse`` -> ``bind`` -> ``translate`` -> ``build_plan`` ->
``execute_plan`` -> ``engine.execute`` -> ``engine.query`` -> the remote
surface.  Each call is one span; ``parent`` names the span of the next
enclosing layer, whose own call repeats the child's work.  Because the
calls are made one after another, a child's interval lies *before* its
parent's on the clock, so self time is taken from durations: the
parent's duration minus the time its children cover (their union, so
concurrent children are not counted twice), never below zero.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int
    workload: str
    template: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; ``write_jsonl`` runs when the benchmark ends."""

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.spans: List[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, op_id: int, template: str) -> Iterator[Span]:
        """Time the body; the caller links ``parent`` once the parent exists."""
        span = Span(len(self.spans), name, self._clock(), 0.0, None, op_id,
                    self.workload, template)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus what its children cover, floored at zero."""
    return max(0.0, span.duration - covered((c.start, c.end) for c in children))


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {span.span_id: self_time(span, children.get(span.span_id, ())) for span in spans}


def child_coverage(spans: List[Span], name: str) -> float:
    """Share of the ``name`` spans' total time that their children account for."""
    own = self_times(spans)
    total = sum(s.duration for s in spans if s.name == name)
    if not total:
        return 0.0
    return 1.0 - sum(own[s.span_id] for s in spans if s.name == name) / total
