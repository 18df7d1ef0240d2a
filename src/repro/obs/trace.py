"""Query-lifecycle tracing: nested wall-time spans (``repro.obs``).

A :class:`Tracer` produces one tree of :class:`Span` objects per query
-- parse, bind, translate, GHD decomposition, attribute-order search,
trie builds, per-GHD-node execution, decode -- each carrying its wall
time, an optional :class:`~repro.xcution.stats.ExecutionStats` delta
scoped to that span, and key/value payloads (chosen order and its
icost*weight cost, set-layout mix, plan-cache outcome, ...).

The engine's lifecycle always records its phase spans and reads every
duration it reports off them.  The planner and executor layers record
their deeper spans only when handed a real tracer, else the module-level
:data:`NULL_TRACER`, whose ``span`` returns one shared inert span.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One timed phase of a query (payload, stats, children); ``with``-able."""

    __slots__ = ("name", "start", "end", "payload", "children", "stats", "_tracer")

    def __init__(self, name: str, start: float = 0.0, tracer=None, payload=None):
        self.name = name
        self.start = start
        self.end = start
        self.payload: Dict[str, object] = {} if payload is None else payload
        self.children: List["Span"] = []
        #: ExecutionStats counters scoped to this span (a plain dict of
        #: counter deltas), set by executors that carry stats.
        self.stats: Optional[Dict[str, int]] = None
        self._tracer = tracer  # the tracer that opens and closes it

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.start = tracer._clock()
        tracer._attach(self)
        tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        self.end = tracer._clock()
        tracer._stack.pop()
        self._tracer = None
        return False

    @property
    def duration(self) -> float:
        """Wall seconds spent inside this span (children included)."""
        return max(0.0, self.end - self.start)

    def set(self, **payload) -> "Span":
        """Attach key/value payload entries to this span."""
        self.payload.update(payload)
        return self

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [span for span in self.walk() if span.name == name]

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> Dict:
        """A JSON-ready rendering of the subtree."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 4),
        }
        if self.payload:
            out["payload"] = {k: _jsonable(v) for k, v in self.payload.items()}
        if self.stats:
            out["stats"] = {k: v for k, v in self.stats.items() if v}
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """A printable span tree (one line per span, payload inline)."""
        lines: List[str] = []
        self._render_into(lines, indent)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], indent: int) -> None:
        parts = [f"{'  ' * indent}{self.name}: {self.duration * 1000:.3f}ms"]
        if self.payload:
            rendered = ", ".join(
                f"{key}={_render_value(value)}" for key, value in self.payload.items()
            )
            parts.append(f" [{rendered}]")
        if self.stats:
            nonzero = ", ".join(f"{k}={v}" for k, v in self.stats.items() if v)
            if nonzero:
                parts.append(f" {{{nonzero}}}")
        lines.append("".join(parts))
        for child in self.children:
            child._render_into(lines, indent + 1)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, children={len(self.children)})"


class Tracer:
    """Builds one span tree; use ``with tracer.span(name): ...``."""

    active = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.root: Optional[Span] = None
        self._stack: List[Span] = []

    def span(self, name: str, **payload) -> Span:
        """A span opened on ``with`` under the innermost open span."""
        # ``payload`` is a fresh dict per call, so the span can own it
        return Span(name, 0.0, self, payload)

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # A second top-level span: graft it under the existing root
            # so one query always yields one tree.
            self.root.children.append(span)

    def annotate(self, **payload) -> None:
        """Attach payload to the innermost open span (no-op when idle)."""
        if self._stack:
            self._stack[-1].payload.update(payload)

    def mark(self, name: str, **payload) -> Span:
        """Record a zero-duration event span under the innermost open span.

        Used for point-in-time facts -- "the deadline fired here", "the
        query was cancelled here" -- that have a position in the tree
        but no extent.
        """
        span = Span(name, self._clock(), None, payload)
        self._attach(span)
        return span


class _NullSpan:
    """The shared inert span returned by :data:`NULL_TRACER`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **payload) -> "_NullSpan":
        return self


class NullTracer:
    """A tracer that records nothing (the default for untraced runs)."""

    active = False
    root = None

    def span(self, name: str, **payload) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **payload) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: module-level singleton: ``tracer or NULL_TRACER`` is the idiom every
#: traced code path uses.
NULL_TRACER = NullTracer()


def phase_times(root: Span) -> Dict[str, float]:
    """Aggregate wall seconds by span name across one tree.

    A span's time includes its children's (it is wall time, not self
    time), so summing phases at mixed depths double-counts; callers
    usually aggregate the direct children of the root (the query's
    sequential phases) or a single name like ``node.execute``.
    """
    out: Dict[str, float] = {}
    for span in root.walk():
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out


def span_to_wire(root: Span) -> Dict:
    """Serialize a span tree for the network, offsets preserved.

    Unlike :meth:`Span.as_dict` (a human-facing rendering that keeps
    only durations), the wire form keeps each span's *start offset*
    relative to the root in microseconds, so the receiving side can
    rebuild a tree whose spans still line up on a timeline --
    :func:`span_from_wire` grafts it under a local parent at an
    arbitrary origin and Chrome trace export keeps working.
    """
    origin = root.start

    def visit(span: Span) -> Dict:
        out: Dict[str, object] = {
            "name": span.name,
            "t0": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
        }
        if span.payload:
            out["payload"] = {k: _jsonable(v) for k, v in span.payload.items()}
        if span.stats:
            out["stats"] = {k: v for k, v in span.stats.items() if v}
        if span.children:
            out["children"] = [visit(child) for child in span.children]
        return out

    return visit(root)


def span_from_wire(payload: Dict, origin: float = 0.0) -> Span:
    """Rebuild a :class:`Span` tree serialized by :func:`span_to_wire`.

    ``origin`` is the absolute start (in the local clock) to anchor the
    remote tree's root at; every descendant keeps its relative offset.
    """
    span = Span(str(payload.get("name", "span")), origin + float(payload.get("t0", 0.0)) / 1e6)
    span.end = span.start + float(payload.get("dur", 0.0)) / 1e6
    data = payload.get("payload")
    if isinstance(data, dict):
        span.payload.update(data)
    stats = payload.get("stats")
    if isinstance(stats, dict):
        span.stats = dict(stats)
    for child in payload.get("children", ()):
        span.children.append(span_from_wire(child, origin))
    return span


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _render_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    return str(value)
