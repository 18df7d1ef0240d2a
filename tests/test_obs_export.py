"""Tests for the exporters (``repro.obs.export``): Prometheus text
exposition, the JSONL query log with slow-query capture, and Chrome
trace-event rendering."""

import io
import json
from pathlib import Path

import pytest

from repro import LevelHeadedEngine, MetricsRegistry, Tracer
from repro.obs import QueryLog, to_chrome_trace, to_prometheus
from tests.conftest import flight_entry, make_mini_tpch, on_threads
from tests.test_engine import Q5_SQL

GOLDEN = Path(__file__).parent / "golden" / "metrics_golden.prom"


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_prometheus_matches_golden_file():
    m = MetricsRegistry()
    m.record_query(flight_entry(execute_ms=10.0, compile_ms=50.0, cache_outcome="miss",
                                rows=3, bytes_out=96, groups=3))
    m.record_query(flight_entry(execute_ms=8.0, cache_outcome="hit", rows=3, bytes_out=96))
    assert m.to_prometheus() == GOLDEN.read_text()


def test_prometheus_empty_registry_renders_rate_only():
    text = to_prometheus(MetricsRegistry())
    assert "repro_plan_cache_hit_rate 0" in text
    assert "_total" not in text
    assert text.endswith("\n")


def test_prometheus_counters_are_sorted_and_typed():
    m = MetricsRegistry()
    m.record_query(flight_entry(execute_ms=1.0, cache_outcome="hit", rows=1, bytes_out=8))
    text = to_prometheus(m)
    lines = text.splitlines()
    counter_names = [
        line.split(" ")[0] for line in lines
        if line and not line.startswith("#") and line.split(" ")[0].endswith("_total")
    ]
    assert counter_names == sorted(counter_names)
    for name in counter_names:
        assert f"# TYPE {name} counter" in text


def test_prometheus_notes_wrapped_reservoir():
    # a summary-style (bucket-less) histogram keeps quantile series and
    # marks them approximate once the reservoir wraps
    m = MetricsRegistry()
    for v in range(5000):  # past the 4096-sample reservoir
        m.observe("server_request_seconds", float(v))
    text = to_prometheus(m)
    assert "quantiles are approximate" in text
    assert "repro_server_request_seconds_reservoir_samples 4096" in text
    assert "repro_server_request_seconds_count 5000" in text


def test_prometheus_bucketed_histograms_emit_cumulative_bucket_series():
    m = MetricsRegistry()
    for v in (0.0005, 0.002, 0.002, 0.3, 42.0):
        m.observe("execute_seconds", v)
    m.observe("admission_wait_seconds", 0.05)
    text = to_prometheus(m)
    assert "# TYPE repro_execute_seconds histogram" in text
    # cumulative le-counts: 1 at <=0.001, 3 at <=0.0025, 4 at <=0.5,
    # and +Inf catches the 42s outlier
    assert 'repro_execute_seconds_bucket{le="0.001"} 1' in text
    assert 'repro_execute_seconds_bucket{le="0.0025"} 3' in text
    assert 'repro_execute_seconds_bucket{le="0.5"} 4' in text
    assert 'repro_execute_seconds_bucket{le="+Inf"} 5' in text
    assert "repro_execute_seconds_count 5" in text
    # bucketed families drop the (approximate) quantile series
    assert 'repro_execute_seconds{quantile=' not in text
    assert 'repro_admission_wait_seconds_bucket{le="0.05"} 1' in text
    assert 'repro_admission_wait_seconds_bucket{le="+Inf"} 1' in text


# ---------------------------------------------------------------------------
# JSONL query log: schema
# ---------------------------------------------------------------------------

EXPECTED_FIELDS = ["ts", "event", "query_id", "sql", "mode", "cache_outcome",
                   "compile_ms", "execute_ms", "rows", "slow", "annotations"]


def test_query_log_event_schema_and_field_order():
    sink = io.StringIO()
    log = QueryLog(sink, clock=_fake_clock([100.0]))
    log.record(flight_entry(sql="SELECT 1", mode="join", cache_outcome="miss",
                            compile_ms=2.0, execute_ms=1.0, rows=1))
    line = sink.getvalue().strip()
    event = json.loads(line)
    assert list(event.keys()) == EXPECTED_FIELDS
    assert event["ts"] == 100.0
    assert event["event"] == "query"
    assert event["mode"] == "join"
    assert event["cache_outcome"] == "miss"
    assert event["compile_ms"] == pytest.approx(2.0)
    assert event["execute_ms"] == pytest.approx(1.0)
    assert event["rows"] == 1
    assert event["slow"] is False
    # annotations is present on every event, an empty dict when unused.
    assert event["annotations"] == {}
    assert log.events_written == 1 and log.slow_events_written == 0


def test_query_log_null_compile_on_cache_hit():
    sink = io.StringIO()
    log = QueryLog(sink)
    log.record(flight_entry(cache_outcome="hit", compile_ms=None, execute_ms=1.0))
    event = json.loads(sink.getvalue())
    assert event["compile_ms"] is None


def test_query_log_fast_query_below_threshold_is_not_slow():
    sink = io.StringIO()
    log = QueryLog(sink, slow_query_seconds=10.0)
    assert log.captures_traces
    log.record(flight_entry(cache_outcome="hit", compile_ms=None, execute_ms=1.0))
    event = json.loads(sink.getvalue())
    assert event["event"] == "query" and event["slow"] is False
    assert "plan" not in event and "trace" not in event


def test_query_log_slow_query_carries_plan_and_trace():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0]))
    with tracer.span("query"):
        with tracer.span("execute"):
            pass
    sink = io.StringIO()
    log = QueryLog(sink, slow_query_seconds=0.5)
    log.record(flight_entry(cache_outcome="hit", compile_ms=None, execute_ms=2000.0),
               plan_text="plan text here", trace_root=tracer.root)
    event = json.loads(sink.getvalue())
    assert event["event"] == "slow_query" and event["slow"] is True
    assert list(event.keys()) == EXPECTED_FIELDS + ["threshold_ms", "plan", "trace"]
    assert event["threshold_ms"] == pytest.approx(500.0)
    assert event["plan"] == "plan text here"
    assert event["trace"]["name"] == "query"
    assert event["trace"]["children"][0]["name"] == "execute"
    assert log.slow_events_written == 1


def test_query_log_path_sink_appends(tmp_path):
    path = tmp_path / "queries.jsonl"
    log = QueryLog(path)
    log.record(flight_entry(sql="a", cache_outcome="miss", compile_ms=1.0,
                            execute_ms=1.0, rows=1))
    log.close()
    log = QueryLog(path)
    log.record(flight_entry(sql="b", cache_outcome="hit", compile_ms=None,
                            execute_ms=1.0, rows=1))
    log.close()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["sql"] for e in events] == ["a", "b"]


# ---------------------------------------------------------------------------
# JSONL query log: engine integration
# ---------------------------------------------------------------------------


@pytest.fixture()
def engine():
    return LevelHeadedEngine(make_mini_tpch())


def test_engine_query_log_records_every_query(engine):
    sink = io.StringIO()
    engine.enable_query_log(sink)
    engine.query(Q5_SQL)
    engine.query(Q5_SQL)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(events) == 2
    assert [e["cache_outcome"] for e in events] == ["miss", "hit"]
    ids = [e["query_id"] for e in events]
    assert all(ids) and len(set(ids)) == 2  # one distinct id per query
    assert events[0]["compile_ms"] > 0 and events[1]["compile_ms"] is None
    assert all(e["rows"] == 1 for e in events)
    assert all(e["slow"] is False for e in events)
    engine.query_log = None
    engine.query(Q5_SQL)
    assert len(sink.getvalue().splitlines()) == 2  # detached: no new events


def test_engine_slow_query_capture_only_above_threshold(engine):
    sink = io.StringIO()
    # threshold 0: everything is slow; the engine force-enables tracing
    # so the event carries the full plan and span tree.
    engine.enable_query_log(sink, slow_query_seconds=0.0)
    result = engine.query(Q5_SQL)
    assert result.trace is None  # forced trace stays internal
    event = json.loads(sink.getvalue().splitlines()[0])
    assert event["event"] == "slow_query"
    assert "GHD" in event["plan"] or "node" in event["plan"].lower()
    span_names = {event["trace"]["name"]}
    span_names.update(c["name"] for c in event["trace"]["children"])
    assert "query" in span_names and "execute" in span_names

    # an absurdly high threshold: nothing is slow, no plan/trace capture
    sink2 = io.StringIO()
    engine.enable_query_log(sink2, slow_query_seconds=1e9)
    engine.query(Q5_SQL)
    event2 = json.loads(sink2.getvalue().splitlines()[0])
    assert event2["event"] == "query"
    assert "plan" not in event2 and "trace" not in event2


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------


def test_chrome_trace_structure():
    tracer = Tracer(clock=_fake_clock([0.0, 0.001, 0.002, 0.004]))
    with tracer.span("query", sql_len=8):
        with tracer.span("execute"):
            pass
    doc = to_chrome_trace(tracer.root)
    json.dumps(doc)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["query", "execute"]
    assert all(e["ph"] == "X" for e in events)
    root, child = events
    assert root["ts"] == 0.0 and root["dur"] == pytest.approx(4000.0)
    assert child["ts"] == pytest.approx(1000.0)
    assert child["dur"] == pytest.approx(1000.0)
    assert root["args"]["sql_len"] == 8


Q3_MINI = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15'
GROUP BY l_orderkey, o_orderdate
"""


@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "parallel"])
def test_chrome_trace_event_schema_golden_for_q3(threads):
    # pins the Chrome trace-event schema the tooling depends on: every
    # span is one complete event with exactly ph/ts/dur/pid/tid (+args),
    # whether the query ran alone or beside another traced query on the
    # same engine (whose spans must not leak into this tree)
    engine = LevelHeadedEngine(make_mini_tpch())
    result = on_threads(lambda: engine.query(Q3_MINI, trace=True), threads)[-1]
    doc = to_chrome_trace(result.trace)
    json.dumps(doc)  # JSON-serializable end to end
    assert set(doc.keys()) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events and events[0]["name"] == "query"
    for event in events:
        assert set(event.keys()) in (
            {"name", "ph", "ts", "dur", "pid", "tid"},
            {"name", "ph", "ts", "dur", "pid", "tid", "args"},
        )
        assert event["ph"] == "X"
        assert isinstance(event["name"], str)
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["pid"] == 1 and event["tid"] == 1
        if "args" in event:
            assert isinstance(event["args"], dict) and event["args"]
    names = [e["name"] for e in events]
    assert {"query", "compile", "execute", "decode", "node.execute"} <= set(names)
    assert names.count("query") == names.count("execute") == 1
    # the root span carries the minted query_id into the export
    root_args = events[0]["args"]
    assert root_args["query_id"] == result.query_id


def test_chrome_trace_from_engine_query(engine, tmp_path):
    from repro.obs import write_chrome_trace

    result = engine.query(Q5_SQL, trace=True)
    path = tmp_path / "trace.json"
    write_chrome_trace(result.trace, path)
    doc = json.loads(path.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert "query" in names and "execute" in names and "decode" in names
