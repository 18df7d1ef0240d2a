"""Tests for the tracing + metrics layer (``repro.obs``)."""

import json

import pytest

from repro import LevelHeadedEngine, MetricsRegistry, Span, Tracer
from repro.obs import NULL_TRACER, Histogram, phase_times
from tests.conftest import flight_entry, make_mini_tpch, on_threads
from tests.test_engine import Q5_SQL


# ---------------------------------------------------------------------------
# Span / Tracer units
# ---------------------------------------------------------------------------


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_tracer_builds_nested_spans():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    with tracer.span("query"):
        with tracer.span("parse"):
            pass
        with tracer.span("execute", mode="join"):
            pass
    root = tracer.root
    assert root.name == "query"
    assert [c.name for c in root.children] == ["parse", "execute"]
    assert root.duration == pytest.approx(10.0)
    assert root.children[0].duration == pytest.approx(2.0)
    assert root.children[1].payload == {"mode": "join"}


def test_tracer_second_toplevel_span_grafts_under_root():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0]))
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    assert tracer.root.name == "first"
    assert [c.name for c in tracer.root.children] == ["second"]


def test_span_find_walk_and_render():
    tracer = Tracer(clock=_fake_clock(list(range(10))))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c", n=3):
                pass
        with tracer.span("b"):
            pass
    root = tracer.root
    assert root.find("c").payload == {"n": 3}
    assert len(root.find_all("b")) == 2
    assert [s.name for s in root.walk()] == ["a", "b", "c", "b"]
    text = root.render()
    assert "a:" in text and "  b:" in text and "    c:" in text and "n=3" in text


def test_span_as_dict_is_json_ready():
    tracer = Tracer(clock=_fake_clock([0.0, 0.5, 1.0, 2.0]))
    with tracer.span("query", sql_len=12):
        with tracer.span("execute"):
            pass
    d = tracer.root.as_dict()
    json.dumps(d)  # must not raise
    assert d["name"] == "query"
    assert d["children"][0]["name"] == "execute"
    assert d["payload"] == {"sql_len": 12}


def test_phase_times_aggregates_by_name():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 5.0, 6.0]))
    with tracer.span("query"):
        with tracer.span("node.execute"):
            pass
        with tracer.span("node.execute"):
            pass
    times = phase_times(tracer.root)
    assert times["node.execute"] == pytest.approx(3.0)


def test_null_tracer_is_inert():
    assert NULL_TRACER.active is False
    with NULL_TRACER.span("anything", x=1) as span:
        span.set(y=2)
    assert NULL_TRACER.root is None
    NULL_TRACER.annotate(z=3)  # no-op, must not raise


# ---------------------------------------------------------------------------
# Histogram / MetricsRegistry units
# ---------------------------------------------------------------------------


def test_histogram_moments_and_percentiles():
    h = Histogram()
    for v in range(1, 101):
        h.observe(float(v))
    assert h.count == 100
    assert h.min == 1.0 and h.max == 100.0
    assert h.mean == pytest.approx(50.5)
    assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
    assert h.percentile(95) == pytest.approx(95.0, abs=1.0)


def test_histogram_reservoir_stays_bounded():
    h = Histogram()
    for v in range(10_000):
        h.observe(float(v))
    assert h.count == 10_000
    assert len(h._samples) <= 4096
    assert h.max == 9999.0


def test_histogram_as_dict_reports_reservoir_samples():
    h = Histogram()
    for v in range(5000):
        h.observe(float(v))
    d = h.as_dict()
    assert d["count"] == 5000
    assert d["samples"] == 4096  # reservoir size, distinct from count
    assert h.samples == 4096


def test_metrics_as_dict_is_a_consistent_snapshot():
    """cache_hit_rate must be computed from the same counter snapshot
    the dict reports, not re-read after the fact."""
    m = MetricsRegistry()
    m.record_query(flight_entry(execute_ms=1.0, cache_outcome="miss", rows=1))
    m.record_query(flight_entry(execute_ms=1.0, cache_outcome="hit", rows=1))
    snap = m.as_dict()
    hits = snap["counters"]["plan_cache_hit"]
    misses = snap["counters"]["plan_cache_miss"]
    assert snap["cache_hit_rate"] == pytest.approx(hits / (hits + misses))


def test_metrics_registry_record_query():
    m = MetricsRegistry()
    m.record_query(flight_entry(execute_ms=10.0, compile_ms=50.0, cache_outcome="miss",
                                rows=3, bytes_out=96, groups=3))
    m.record_query(flight_entry(execute_ms=8.0, cache_outcome="hit", rows=3, bytes_out=96))
    assert m.counter("queries_served") == 2
    assert m.counter("rows_emitted") == 6
    assert m.counter("plan_cache_hit") == 1
    assert m.counter("plan_cache_miss") == 1
    assert m.cache_hit_rate == pytest.approx(0.5)
    assert m.histogram("execute_seconds").count == 2
    assert m.histogram("compile_seconds").count == 1
    snap = m.as_dict()
    json.dumps(snap)
    assert snap["counters"]["bytes_materialized"] == 192
    assert "execute_seconds" in m.describe()
    m.reset()
    assert m.counter("queries_served") == 0


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    return LevelHeadedEngine(make_mini_tpch())


def test_query_trace_covers_the_lifecycle(engine):
    result = engine.query(Q5_SQL, trace=True)
    root = result.trace
    assert isinstance(root, Span)
    assert root.name == "query"
    names = {s.name for s in root.walk()}
    # compile phases (first compile of this SQL on this engine), the
    # physical plan's sub-phases, and the execution/decode phases
    assert {"plan_cache.lookup", "parse", "bind", "translate",
            "physical_plan", "execute", "decode"} <= names
    assert {"ghd.decompose", "attribute_order", "trie.build",
            "node.execute"} <= names
    # the chosen-order payload carries the icost*weight breakdown
    order_span = root.find("attribute_order")
    assert "order" in order_span.payload and "icost_weight" in order_span.payload
    # span-scoped counters hang off the execution spans
    exec_span = root.find("execute")
    assert exec_span.stats["nodes_executed"] == 2
    node_spans = root.find_all("node.execute")
    assert len(node_spans) == 2
    assert all("order_cost" in s.payload for s in node_spans)
    assert sum(s.stats["groups_emitted"] for s in node_spans) == \
        exec_span.stats["groups_emitted"]


def test_trace_child_durations_sum_to_root(engine):
    result = engine.query(Q5_SQL, trace=True)
    root = result.trace
    child_sum = sum(c.duration for c in root.children)
    assert child_sum <= root.duration + 1e-9
    # the phases account for the bulk of the query's wall time
    assert child_sum >= 0.5 * root.duration


def test_trace_cache_hit_skips_compile_spans(engine):
    engine.query(Q5_SQL)  # warm the plan cache
    result = engine.query(Q5_SQL, trace=True)
    root = result.trace
    lookup = root.find("plan_cache.lookup")
    assert lookup.payload["outcome"] == "hit"
    # the text resolves through the parse memo; bind, translate and
    # planning are skipped
    for phase in ("bind", "translate", "physical_plan"):
        assert root.find(phase) is None
    assert root.find("plan.bind") is not None
    assert root.find("execute") is not None


def test_untraced_query_has_no_trace(engine):
    result = engine.query(Q5_SQL)
    assert result.trace is None


def test_trace_with_params_goes_through_prepared(engine):
    result = engine.query(
        "SELECT sum(o_totalprice) AS t FROM orders WHERE o_totalprice > ?",
        params=[0.0],
        trace=True,
    )
    assert result.trace is not None
    assert result.trace.name == "query"
    assert result.trace.find("execute") is not None


def test_explain_analyze_includes_trace(engine):
    text = engine.explain(Q5_SQL, analyze=True)
    assert "trace:" in text
    assert "node.execute" in text
    payload = engine.explain(Q5_SQL, analyze=True, format="json")
    json.dumps(payload)
    assert payload["trace"]["name"] == "query"
    child_names = [c["name"] for c in payload["trace"]["children"]]
    assert "execute" in child_names and "decode" in child_names


def test_engine_metrics_accumulate():
    engine = LevelHeadedEngine(make_mini_tpch())
    for _ in range(3):
        engine.query(Q5_SQL)
    m = engine.metrics
    assert m.counter("queries_served") == 3
    assert m.counter("plan_cache_miss") == 1
    assert m.counter("plan_cache_hit") == 2
    assert m.cache_hit_rate == pytest.approx(2 / 3)
    assert m.histogram("execute_seconds").count == 3
    assert m.histogram("compile_seconds").count == 1  # only the miss compiles
    assert m.counter("rows_emitted") == 3
    assert m.counter("bytes_materialized") > 0


def test_traced_parallel_run_matches_serial_counters():
    # four traced queries at once on one engine: each trace holds its
    # own query's counters, equal to a lone run's
    engine = LevelHeadedEngine(make_mini_tpch())
    s = engine.query(Q5_SQL, trace=True)
    s_exec = s.trace.find("execute").stats
    drop_cache = lambda d: {k: v for k, v in d.items() if not k.startswith("plan_cache")}
    for p in on_threads(lambda: engine.query(Q5_SQL, trace=True), 4):
        assert drop_cache(p.trace.find("execute").stats) == drop_cache(s_exec)
