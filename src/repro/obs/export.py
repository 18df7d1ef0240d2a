"""Exporters: getting observability data *out* of the process.

Three export surfaces sit on top of the in-process substrate
(:class:`~repro.obs.MetricsRegistry` and :class:`~repro.obs.Span`):

* :func:`to_prometheus` -- Prometheus text exposition of a metrics
  registry (counters as ``_total``, histograms as summaries with
  ``_count``/``_sum``/``_min``/``_max`` plus quantile gauges);
* :class:`QueryLog` -- a structured JSONL query-event log with a
  configurable slow-query threshold; queries at or above the threshold
  capture the full plan text and lifecycle span tree so the offending
  query can be diagnosed after the fact;
* :func:`to_chrome_trace` -- a ``chrome://tracing`` / Perfetto
  trace-event rendering of one :class:`~repro.obs.Span` tree.

All three are deterministic given their inputs: field order is fixed,
floats are formatted stably, and nothing depends on dict iteration
order beyond insertion order.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import Dict, List, Optional, TextIO, Union

from .metrics import KILL_COUNTERS
from .trace import Span

# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: quantiles exported per histogram (label value, percentile).
_QUANTILES = (("0.5", 50.0), ("0.95", 95.0))


def _fmt(value) -> str:
    """Stable number formatting for exposition lines."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def _metric_name(name: str) -> str:
    """Sanitize a registry key into a Prometheus metric name component."""
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def to_prometheus(registry, namespace: str = "repro") -> str:
    """Render a :class:`~repro.obs.MetricsRegistry` in Prometheus text format.

    Counters become ``<ns>_<name>_total``; each histogram becomes a
    summary (``_count``, ``_sum``, quantile series) plus ``_min`` /
    ``_max`` gauges and a ``_reservoir_samples`` gauge.  When the
    reservoir has wrapped (``count > samples``) the quantile series are
    marked approximate via a comment, since they then cover only the
    most recent window of observations.  Histograms with fixed bucket
    bounds (:data:`repro.obs.metrics.BUCKET_BOUNDS`) render instead as
    real Prometheus histograms -- cumulative ``_bucket{le="..."}``
    series ending at ``+Inf`` -- so arbitrary quantiles can be computed
    server-side; their reservoir quantile series are dropped (buckets
    are exact, the reservoir is not).  Output is deterministic: metric
    families are sorted by name.
    """
    snap = registry.as_dict()
    out: List[str] = []

    for name in sorted(snap["counters"]):
        metric = f"{namespace}_{_metric_name(name)}_total"
        out.append(f"# HELP {metric} Cumulative counter '{name}'.")
        out.append(f"# TYPE {metric} counter")
        out.append(f"{metric} {_fmt(snap['counters'][name])}")

    # point-in-time gauges (active connections, live sessions, ...);
    # absent from older snapshots, so .get keeps external dicts working
    for name in sorted(snap.get("gauges", {})):
        metric = f"{namespace}_{_metric_name(name)}"
        out.append(f"# HELP {metric} Gauge '{name}'.")
        out.append(f"# TYPE {metric} gauge")
        out.append(f"{metric} {_fmt(snap['gauges'][name])}")

    metric = f"{namespace}_plan_cache_hit_rate"
    out.append(f"# HELP {metric} Plan-cache hits over hit+miss lookups.")
    out.append(f"# TYPE {metric} gauge")
    out.append(f"{metric} {_fmt(snap['cache_hit_rate'])}")

    for name in sorted(snap["histograms"]):
        h = snap["histograms"][name]
        metric = f"{namespace}_{_metric_name(name)}"
        buckets = h.get("buckets")
        out.append(f"# HELP {metric} Distribution of '{name}'.")
        if buckets:
            out.append(f"# TYPE {metric} histogram")
            for label, count in buckets:
                out.append(f'{metric}_bucket{{le="{label}"}} {_fmt(count)}')
        else:
            approximate = h["count"] > h["samples"]
            out.append(f"# TYPE {metric} summary")
            if approximate:
                out.append(
                    f"# NOTE {metric} quantiles are approximate: reservoir wrapped "
                    f"({h['samples']} samples of {h['count']} observations)"
                )
            for label, _ in _QUANTILES:
                key = "p" + label.replace("0.", "").ljust(2, "0")
                out.append(f'{metric}{{quantile="{label}"}} {_fmt(h[key])}')
        out.append(f"{metric}_count {_fmt(h['count'])}")
        out.append(f"{metric}_sum {_fmt(h['sum'])}")
        out.append(f"# TYPE {metric}_min gauge")
        out.append(f"{metric}_min {_fmt(h['min'])}")
        out.append(f"# TYPE {metric}_max gauge")
        out.append(f"{metric}_max {_fmt(h['max'])}")
        out.append(f"# TYPE {metric}_reservoir_samples gauge")
        out.append(f"{metric}_reservoir_samples {_fmt(h['samples'])}")

    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structured JSONL query-event log
# ---------------------------------------------------------------------------


class QueryLog:
    """A JSONL query-event log with slow-query capture.

    One JSON object per line, with a stable field order (so downstream
    parsers can stream line by line and golden tests can pin the
    schema).  Each event is read off one finished query's
    flight-recorder entry: a served query is a ``query`` event, a killed
    one (deadline, cancel, memory budget -- also before it ran) a
    ``killed_query`` event; rejections and errors write none.  Queries
    whose execute time reaches ``slow_query_seconds``, and killed
    queries, additionally capture the full plan text and the query's
    span tree: its lifecycle spans, plus the planner and executor spans
    the engine records for every query while a slow threshold is
    configured.

    ``sink`` is a path (opened in append mode, one line flushed per
    event) or any file-like object with ``write``.
    """

    def __init__(
        self,
        sink: Union[str, TextIO],
        slow_query_seconds: Optional[float] = None,
        clock=time.time,
    ):
        self.slow_query_seconds = slow_query_seconds
        self._clock = clock
        self._lock = threading.Lock()
        if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
            self._stream: TextIO = open(sink, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        #: events written since construction (for tests / introspection).
        self.events_written = 0
        self.slow_events_written = 0
        self.killed_events_written = 0

    @property
    def captures_traces(self) -> bool:
        """Whether the engine should trace every query for this log."""
        return self.slow_query_seconds is not None

    def _slow(self, entry: Dict[str, object]) -> bool:
        return (
            self.slow_query_seconds is not None
            and entry["execute_ms"] >= self.slow_query_seconds * 1000
        )

    def captures(self, entry: Dict[str, object]) -> bool:
        """Whether ``entry``'s event carries the plan text and span tree:
        a kill always does, a served query once it is slow."""
        outcome = entry["outcome"]
        return outcome in KILL_COUNTERS or (outcome == "ok" and self._slow(entry))

    def record(
        self,
        entry: Dict[str, object],
        plan_text: Optional[str] = None,
        trace_root: Optional[Span] = None,
    ) -> None:
        """Append the event of one finished query; thread-safe, one line.

        ``entry`` is the query's flight-recorder entry.  An ``ok`` one is
        a ``query`` (or ``slow_query``) event; a kill (``timeout`` /
        ``cancelled`` / ``oom``) is a ``killed_query`` event that adds
        its ``outcome`` and *always* carries ``plan``/``trace`` (a query
        the governor killed is precisely the one to diagnose afterwards;
        ``plan`` is null when it died before its plan ran).  Any
        other outcome writes nothing.  ``annotations`` is the entry's
        block, present on every event.
        """
        outcome = entry["outcome"]
        killed = outcome in KILL_COUNTERS
        if not killed and outcome != "ok":
            return
        slow = self._slow(entry)
        # Stable field order: parsers and golden tests rely on it.
        event: Dict[str, object] = {
            "ts": round(self._clock(), 6),
            "event": "killed_query" if killed else ("slow_query" if slow else "query"),
            "query_id": entry["query_id"],
            "sql": entry["sql"],
            "mode": entry["mode"],
            "cache_outcome": entry["cache_outcome"],
            "compile_ms": entry["compile_ms"],
            "execute_ms": entry["execute_ms"],
            "rows": entry["rows"],
            "slow": slow,
            "annotations": entry["annotations"],
        }
        if killed:
            event["outcome"] = outcome
        if slow and not killed:
            event["threshold_ms"] = round(self.slow_query_seconds * 1000, 4)
        if slow or killed:
            event["plan"] = plan_text
            event["trace"] = None if trace_root is None else trace_root.as_dict()
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            flush = getattr(self._stream, "flush", None)
            if flush is not None:
                flush()
            self.events_written += 1
            if slow:
                self.slow_events_written += 1
            if killed:
                self.killed_events_written += 1

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


# ---------------------------------------------------------------------------
# Chrome trace-event export of span trees
# ---------------------------------------------------------------------------


def to_chrome_trace(root: Span, pid: int = 1, tid: int = 1) -> Dict:
    """Render one span tree as Chrome trace-event JSON.

    The result loads directly into ``chrome://tracing`` or Perfetto:
    every span becomes one complete ("X") event with microsecond
    timestamps relative to the root span's start, payload and scoped
    stats carried in ``args``.
    """
    events: List[Dict] = []
    origin = root.start

    def visit(span: Span) -> None:
        event: Dict[str, object] = {
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        args: Dict[str, object] = {}
        if span.payload:
            args.update(span.as_dict().get("payload", {}))
        if span.stats:
            args["stats"] = {k: v for k, v in span.stats.items() if v}
        if args:
            event["args"] = args
        events.append(event)
        for child in span.children:
            visit(child)

    visit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(root: Span, path: str) -> str:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    payload = to_chrome_trace(root)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream)
    return path


def render_chrome_trace(root: Span) -> str:
    """The Chrome trace JSON as a string (for tests and piping)."""
    buffer = io.StringIO()
    json.dump(to_chrome_trace(root), buffer)
    return buffer.getvalue()
