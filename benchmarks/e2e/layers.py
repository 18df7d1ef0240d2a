"""Per-layer metrics: micro-probes, span medians, and counter sums.

Three sources, all outside the program: *probes* time one layer's
public function on pinned inputs (the same in every traced run),
*spans* are the harness's own timings from the traced walk, and
*counters* are what the program already publishes (``result.stats``,
``result.profile.counters()``, the ``plans``/``metrics`` debug views).
"""

from __future__ import annotations

import dataclasses
import io
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.la import blas
from repro.server.protocol import read_frame, write_frame
from repro.sets import Layout, intersect, make_set
from repro.storage import Table

from . import stats
from .schedule import Record
from .spans import Span, self_times


@dataclass
class TraceContext:
    """What the traced run collected, handed to the metric functions."""

    #: closed-loop ops run plainly through the surface (tracing off).
    untraced: List[Record]
    #: open-loop ops of the same segment (serve_mix only).
    open_loop: List[Record]
    #: spans of the ops walked through the layers by hand.
    spans: List[Span]
    cold_pass_s: float
    #: plan-cache and metrics debug views before/after the untraced segment.
    plans_before: Dict[str, int]
    plans_after: Dict[str, int]
    metrics_after: Dict[str, object]
    #: CPU seconds the program's own processes used over the untraced
    #: segment (None when the program is this process).
    program_cpu_s: Optional[float]
    #: root span name of ``surface.query(sql, trace=True)`` per template.
    trace_roots: Dict[str, str]

    def __post_init__(self):
        self._own_times = self_times(self.spans)

    def median_ms(self, template: str) -> float:
        """Median untraced latency of ``template`` in ms (0 when it never ran)."""
        chosen = [r.latency * 1e3 for r in self.untraced if r.op.template == template]
        return float(np.median(chosen)) if chosen else 0.0

    def span_ms(self, name: str, template: Optional[str] = None, own: bool = False) -> float:
        """Median duration (or self time) in ms of the spans called ``name``."""
        chosen = [
            (self._own_times[s.span_id] if own else s.duration) * 1e3
            for s in self.spans
            if s.name == name and (template is None or s.template == template)
        ]
        return float(np.median(chosen)) if chosen else 0.0


# -- probes: one layer's public function on pinned inputs ------------------------


def probe_sets() -> Dict[str, float]:
    """ns per input element of the three intersection kernels."""
    rng = np.random.default_rng(0x5E75)
    sparse = [np.unique(rng.integers(0, 1 << 22, size=8192)) for _ in range(2)]
    dense = [np.unique(rng.integers(0, 1 << 16, size=32768)) for _ in range(2)]
    uint_a, uint_b = (make_set(v, force_layout=Layout.UINT) for v in sparse)
    bs_a, bs_b = (make_set(v, force_layout=Layout.BITSET) for v in dense)
    out = {}
    for name, left, right in (
        ("uint_uint", uint_a, uint_b), ("bs_bs", bs_a, bs_b), ("bs_uint", bs_a, uint_b),
    ):
        seconds = stats.timed_median(lambda: intersect(left, right), repeats=200)
        out[f"sets.{name}_ns_per_elem"] = seconds * 1e9 / (len(left) + len(right))
    return out


def probe_frames() -> Dict[str, float]:
    """MB/s of ``write_frame`` / ``read_frame`` on one 1024-row batch frame."""
    rng = np.random.default_rng(0xF4A3)
    frame = {
        "type": "batch", "qid": 1,
        "rows": [[int(i), float(x), f"Customer#{i:09d}"]
                 for i, x in enumerate(rng.normal(size=1024))],
    }
    encoded = io.BytesIO()
    write_frame(encoded, frame)
    payload = encoded.getvalue()
    encode_s = stats.timed_median(lambda: write_frame(io.BytesIO(), frame), repeats=50)
    decode_s = stats.timed_median(lambda: read_frame(io.BytesIO(payload)), repeats=50)
    megabytes = len(payload) / 1e6
    return {
        "server.frame_encode_mb_s": megabytes / encode_s,
        "server.frame_decode_mb_s": megabytes / decode_s,
    }


def probe_blas() -> Dict[str, float]:
    rng = np.random.default_rng(0xB1A5)
    matrix = rng.normal(size=(512, 512))
    vector = rng.normal(size=512)
    return {
        "la.blas_gemm_ms": stats.timed_median(lambda: blas.gemm(matrix, matrix), repeats=15) * 1e3,
        "la.blas_gemv_ms": stats.timed_median(lambda: blas.gemv(matrix, vector), repeats=200) * 1e3,
    }


def probe_trie(engine) -> Dict[str, float]:
    """Cold ``get_trie`` on a private copy of the workload's largest table."""
    source = max(engine.catalog.tables.values(), key=lambda t: t.num_rows)
    keys = source.schema.key_names
    built = []

    def build():
        table = Table(source.schema, dict(source.columns))  # no cached tries
        built.append(table.get_trie(keys))

    build_s = stats.timed_median(build, repeats=3)
    trie = built[-1]
    trie_bytes = sum(
        int(level.flat_values.nbytes) + int(level.offsets.nbytes) for level in trie.levels
    )
    input_bytes = sum(int(source.columns[k].nbytes) for k in keys)
    return {
        "trie.build_ms": build_s * 1e3,
        "trie.build_rows_per_s": source.num_rows / build_s,
        "trie.bytes_per_input_byte": trie_bytes / input_bytes,
    }


# -- counters: one profiled execution per template ---------------------------------


def counter_metrics(engine, ops) -> Dict[str, float]:
    """Deterministic work counts of one pass, from ``stats`` and the profiler."""
    totals = dict.fromkeys(
        ("loop_values", "intersections", "intersection_output", "binary_rows",
         "groups_emitted"), 0,
    )
    kernels = dict.fromkeys(("uint_uint", "bs_bs", "bs_uint"), 0)
    nodes = {"wcoj": 0, "binary": 0}
    bytes_intersected = lazy_builds = result_rows = 0
    q_error = 0.0
    for op in ops:
        if op.kind == "replace":
            continue
        config = dataclasses.replace(engine.config, approx="force") if op.approx else None
        plan = engine.compile(op.text, config=config)
        result = engine.execute(plan, collect_stats=True, profile=True)
        for name in totals:
            totals[name] += getattr(result.stats, name)
        q_error = max(q_error, result.stats.q_error_max)
        result_rows += result.num_rows
        profile = result.profile.counters()
        for kind in kernels:
            kernels[kind] += profile["kernel_counts"].get(kind, 0)
        bytes_intersected += profile["bytes_intersected"]
        lazy_builds += profile["lazy_builds"]
        for summary in plan.node_summaries():
            choice = (summary.get("strategy") or {}).get("choice")
            if choice in nodes:
                nodes[choice] += 1
    examined = totals["loop_values"] + totals["intersection_output"] + totals["binary_rows"]
    out = {f"xcution.{name}": float(value) for name, value in totals.items()}
    out.update({f"sets.kernel_{kind}": float(count) for kind, count in kernels.items()})
    out.update({
        "xcution.rows_examined_per_result": examined / result_rows if result_rows else 0.0,
        "sets.bytes_intersected": float(bytes_intersected),
        "trie.lazy_builds": float(lazy_builds),
        "optimizer.nodes_wcoj": float(nodes["wcoj"]),
        "optimizer.nodes_binary": float(nodes["binary"]),
        "optimizer.q_error_max": float(q_error),
    })
    return out


# -- spans and debug views ------------------------------------------------------------


def span_metrics(ctx: TraceContext) -> Dict[str, float]:
    compile_spans = ("sql.parse", "sql.bind", "query.translate", "xcution.build_plan")
    per_op: Dict[int, float] = {}
    for span in ctx.spans:
        if span.name in compile_spans or span.name == "approx.rewrite":
            per_op[span.op_id] = per_op.get(span.op_id, 0.0) + span.duration
    return {
        "sql.parse_ms": ctx.span_ms("sql.parse"),
        "sql.bind_ms": ctx.span_ms("sql.bind"),
        "query.translate_ms": ctx.span_ms("query.translate"),
        "xcution.build_plan_ms": ctx.span_ms("xcution.build_plan"),
        "xcution.execute_plan_ms": ctx.span_ms("xcution.execute_plan"),
        # what engine.compile does, summed from the walk's four calls
        "core.compile_total_ms": float(np.median(list(per_op.values()))) * 1e3 if per_op else 0.0,
        "core.decode_overhead_ms": ctx.span_ms("core.execute", own=True),
        "core.query_overhead_ms": ctx.span_ms("core.query", own=True),
        "approx.rewrite_ms": ctx.span_ms("approx.rewrite"),
        "storage.replace_ms": ctx.span_ms("storage.replace"),
    }


def cache_metrics(ctx: TraceContext) -> Dict[str, float]:
    """Plan-cache and admission numbers over the untraced segment."""
    delta = {k: ctx.plans_after.get(k, 0) - ctx.plans_before.get(k, 0) for k in ctx.plans_after}
    # an invalidated or re-optimized lookup is also a lookup that did not hit
    lookups = sum(delta.get(k, 0) for k in ("hits", "misses", "invalidations", "reoptimizations"))
    counters = ctx.metrics_after.get("counters", {})
    waits = ctx.metrics_after.get("histograms", {}).get("admission_wait_seconds", {})
    served = counters.get("queries_served", 0)
    return {
        "core.plan_cache_hit_rate": delta.get("hits", 0) / lookups if lookups else 0.0,
        "core.plan_cache_evictions": float(delta.get("evictions", 0)),
        "core.plan_cache_invalidations": float(delta.get("invalidations", 0)),
        "core.admission_wait_ms": waits.get("sum", 0.0) * 1e3 / served if served else 0.0,
        "core.admission_rejected": float(counters.get("admission_rejected", 0)),
    }
