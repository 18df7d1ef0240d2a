"""Observability for the query lifecycle: tracing and serving metrics.

``repro.obs`` is the substrate the paper's cost attribution rests on
(Section V's per-phase accounting, Figure 5b/5c) and the serving
story's measurement layer: a span-based :class:`Tracer` that records
where each query's time goes (parse -> bind -> translate -> decompose
-> order search -> trie build -> per-GHD-node execution -> decode) and
a process-wide :class:`MetricsRegistry` that accumulates cumulative
counters and latency percentiles across queries.

Entry points:

* ``engine.query(sql, trace=True)`` -> ``result.trace`` (a :class:`Span`
  tree);
* ``engine.query(sql, profile=True)`` -> ``result.profile`` (a
  :class:`KernelProfiler` with per-trie-level kernel attribution);
* ``engine.explain(sql, analyze=True)`` renders the trace as text or
  JSON;
* ``engine.metrics`` -- the engine's :class:`MetricsRegistry`;
  ``engine.metrics.to_prometheus()`` is the scrape endpoint payload;
* :class:`QueryLog` -- a JSONL query-event log with slow-query plan and
  trace capture (``engine.enable_query_log``);
* :func:`to_chrome_trace` / :func:`write_chrome_trace` -- load a span
  tree into ``chrome://tracing``;
* the CLI's ``\\trace``, ``\\profile``, and ``\\metrics`` commands;
* :func:`phase_times` aggregates a span tree for the bench harness.
"""

from .export import (
    QueryLog,
    render_chrome_trace,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
)
from .flight import (
    FlightRecorder,
    InflightQuery,
    InflightRegistry,
    admission_of,
    next_query_id,
    sql_hash,
)
from .metrics import Histogram, MetricsRegistry
from .profile import KernelProfiler
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    phase_times,
    span_from_wire,
    span_to_wire,
)

__all__ = [
    "FlightRecorder",
    "Histogram",
    "InflightQuery",
    "InflightRegistry",
    "KernelProfiler",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryLog",
    "Span",
    "Tracer",
    "admission_of",
    "next_query_id",
    "phase_times",
    "render_chrome_trace",
    "span_from_wire",
    "span_to_wire",
    "sql_hash",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
]
