"""Flight recorder, in-flight registry, and query-id correlation.

Pins the always-on observability contract: ``next_query_id`` is unique
and process-tagged, the :class:`~repro.obs.FlightRecorder` ring never
exceeds its capacity no matter how many concurrent sessions record
into it, every finished/failed query leaves a correlated flight entry,
and ``engine.debug_snapshot`` serves the four live views atomically.
"""

import os
import threading
import time

import pytest

import repro
from repro import LevelHeadedEngine
from repro.core import engine as engine_module
from repro.core.governor import Governor
from repro.core.prepared import PlanSource
from repro.errors import ReproError
from repro.obs import FlightRecorder, InflightRegistry, next_query_id, sql_hash

from .conftest import make_mini_tpch
from .test_engine import Q5_SQL


# ---------------------------------------------------------------------------
# query ids and hashes
# ---------------------------------------------------------------------------


def test_next_query_id_unique_and_pid_tagged():
    ids = [next_query_id() for _ in range(1000)]
    assert len(set(ids)) == 1000
    assert all(i.startswith(f"q{os.getpid()}-") for i in ids)


def test_sql_hash_stable_and_none_for_empty():
    assert sql_hash("SELECT 1") == sql_hash("SELECT 1")
    assert sql_hash("SELECT 1") != sql_hash("SELECT 2")
    assert len(sql_hash("SELECT 1")) == 12
    assert sql_hash(None) is None and sql_hash("") is None


# ---------------------------------------------------------------------------
# the ring itself
# ---------------------------------------------------------------------------


def test_ring_never_exceeds_capacity_under_1k_concurrent_queries():
    recorder = FlightRecorder(capacity=64)
    sizes = []

    def session(name, queries=100):
        for _ in range(queries):
            recorder.record(
                {"query_id": next_query_id(), "session": name, "outcome": "ok"}
            )
            sizes.append(len(recorder))

    threads = [
        threading.Thread(target=session, args=(f"s{i}",)) for i in range(10)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert recorder.recorded == 1000
    assert len(recorder) == 64
    assert max(sizes) <= 64  # never exceeded capacity at any point
    snap = recorder.snapshot()
    assert len(snap) == 64
    ids = [e["query_id"] for e in snap]
    assert len(set(ids)) == 64  # distinct queries survived, none duplicated


def test_ring_snapshot_newest_first_with_filters():
    recorder = FlightRecorder(capacity=8)
    for i in range(10):
        recorder.record(
            {"query_id": f"q-{i}", "outcome": "ok" if i % 2 else "error"}
        )
    snap = recorder.snapshot()
    assert [e["query_id"] for e in snap] == [f"q-{i}" for i in range(9, 1, -1)]
    assert [e["query_id"] for e in recorder.snapshot(n=2)] == ["q-9", "q-8"]
    errors = recorder.snapshot(outcome="error")
    assert all(e["outcome"] == "error" for e in errors)
    assert [e["query_id"] for e in recorder.snapshot(n=1, outcome="error")] == ["q-8"]
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_inflight_registry_register_and_finish():
    reg = InflightRegistry()
    entry = reg.register("q-1", "SELECT 1", session="s1")
    assert len(reg) == 1
    assert entry.phase == "admission"
    snap = reg.snapshot()[0]
    assert snap["query_id"] == "q-1"
    assert snap["session"] == "s1"
    assert snap["sql"] == "SELECT 1"
    assert snap["elapsed_ms"] >= 0
    reg.finish("q-1")
    assert len(reg) == 0 and reg.snapshot() == []
    reg.finish("q-1")  # idempotent


# ---------------------------------------------------------------------------
# engine integration: every query leaves a correlated entry
# ---------------------------------------------------------------------------


@pytest.fixture()
def engine():
    return LevelHeadedEngine(make_mini_tpch())


def test_flight_entry_contents_for_ok_query(engine):
    result = engine.query(Q5_SQL)
    assert result.query_id
    entries = engine.flight.snapshot()
    assert len(entries) == 1
    e = entries[0]
    assert e["query_id"] == result.query_id
    assert e["outcome"] == "ok"
    assert e["sql"] == Q5_SQL and e["sql_hash"] == sql_hash(Q5_SQL)
    assert e["cache_outcome"] == "miss"
    assert e["mode"] == "join"
    assert e["compile_ms"] > 0 and e["execute_ms"] > 0
    assert e["rows"] == result.num_rows and e["bytes_out"] > 0
    assert e["queued"] is False and e["admission_wait_ms"] == 0
    # per-node planner decisions: the chosen attribute order
    assert e["nodes"]
    for node in e["nodes"]:
        assert set(node) == {"node", "order"} and node["order"]
    # second run hits the cache, with its own id and no compile time
    result2 = engine.query(Q5_SQL)
    assert result2.query_id != result.query_id
    newest = engine.flight.snapshot(n=1)[0]
    assert newest["query_id"] == result2.query_id
    assert newest["cache_outcome"] == "hit" and newest["compile_ms"] is None


def test_failed_query_records_error_outcome_with_query_id(engine):
    with pytest.raises(repro.BindError) as info:
        engine.query("SELECT count(*) AS n FROM no_such_table t")
    assert getattr(info.value, "query_id", None)
    entries = engine.flight.snapshot(outcome="error")
    assert [e["query_id"] for e in entries] == [info.value.query_id]
    assert entries[0]["error"]
    assert entries[0]["execute_ms"] is not None


def test_timed_out_query_records_timeout_outcome():
    engine = LevelHeadedEngine(make_mini_tpch())
    with pytest.raises(repro.QueryTimeoutError) as info:
        engine.query(
            "SELECT count(*) AS n FROM lineitem l1, lineitem l2, lineitem l3 "
            "WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey",
            timeout_ms=0.0001,
        )
    entries = engine.flight.snapshot(outcome="timeout")
    assert [e["query_id"] for e in entries] == [info.value.query_id]


def test_flight_capacity_is_configurable():
    engine = LevelHeadedEngine(make_mini_tpch(), flight_capacity=2)
    for _ in range(4):
        engine.query(Q5_SQL)
    assert engine.flight.capacity == 2
    assert len(engine.flight) == 2
    assert engine.flight.recorded == 4


def test_stats_and_result_carry_query_id(engine):
    result = engine.query(Q5_SQL, collect_stats=True)
    assert result.stats.query_id == result.query_id
    # the id is correlation metadata, not a counter: numeric dict views
    # (as_dict drives the parallel-differential equality checks) skip it
    assert "query_id" not in result.stats.as_dict()


def test_traced_query_stamps_query_id_on_root_span(engine):
    result = engine.query(Q5_SQL, trace=True)
    assert result.trace.payload["query_id"] == result.query_id


# ---------------------------------------------------------------------------
# debug_snapshot: the four live views
# ---------------------------------------------------------------------------


def test_debug_snapshot_views(engine):
    engine.query(Q5_SQL)
    queries = engine.debug_snapshot("queries")
    assert queries == {"count": 0, "queries": []}  # nothing in flight now
    flight = engine.debug_snapshot("flight")
    assert flight["capacity"] == 256
    assert flight["recorded"] == 1 and len(flight["entries"]) == 1
    plans = engine.debug_snapshot("plans")
    assert plans["size"] == len(plans["entries"]) == 1
    assert plans["entries"][0]["mode"] == "join"
    assert plans["entries"][0]["hits"] == 0
    assert plans["stats"]["misses"] == 1
    assert engine.debug_snapshot("governor") == {"governor": None}
    with pytest.raises(ReproError, match="unknown debug view"):
        engine.debug_snapshot("bogus")


def test_debug_queries_sees_inflight_query():
    engine = LevelHeadedEngine(make_mini_tpch())
    seen = {}
    barrier = threading.Event()

    original = engine._execute_local

    def spying_runner(*args, **kwargs):
        seen["queries"] = engine.debug_snapshot("queries")
        barrier.set()
        return original(*args, **kwargs)

    engine._execute_local = spying_runner
    result = engine.query(Q5_SQL)
    assert barrier.is_set()
    live = seen["queries"]
    assert live["count"] == 1
    assert live["queries"][0]["query_id"] == result.query_id
    assert live["queries"][0]["phase"] in ("admission", "compile", "execute")


def test_inflight_phase_reads_the_open_lifecycle_span(monkeypatch):
    engine = LevelHeadedEngine(make_mini_tpch())
    seen = []

    def note_phase():
        seen.append(engine.debug_snapshot("queries")["queries"][0]["phase"])

    key, execute_plan = PlanSource.key, engine_module.execute_plan

    def spying_key(self, cfg):
        note_phase()
        return key(self, cfg)

    def spying_execute_plan(*args, **kwargs):
        note_phase()
        return execute_plan(*args, **kwargs)

    monkeypatch.setattr(PlanSource, "key", spying_key)
    monkeypatch.setattr(engine_module, "execute_plan", spying_execute_plan)
    engine.query(Q5_SQL)
    assert seen == ["parse", "execute"]


def test_reported_durations_are_read_off_the_lifecycle_spans():
    # one clock per query: the flight entry's compile and execute times
    # and the profile's execute time are the spans' own durations
    engine = LevelHeadedEngine(make_mini_tpch())
    result = engine.query(Q5_SQL, trace=True, profile=True)
    entry = engine.debug_snapshot("flight", n=1)["entries"][0]
    assert entry["query_id"] == result.query_id
    spans = {child.name: child for child in result.trace.children}
    assert entry["compile_ms"] == round(spans["compile"].duration * 1000, 4)
    runner = sum(spans[name].duration for name in ("execute", "decode"))
    assert entry["execute_ms"] == round(runner * 1000, 4)
    assert result.profile.execute_seconds == spans["execute"].duration


def test_inflight_row_of_a_queued_query_reads_the_open_admission_span():
    # while the query waits for a slot, its live row is queued and its
    # wait grows on the tracer's clock from the admission span's start
    governor = Governor(max_concurrency=1, max_queue=4)
    engine = repro.connect(catalog=make_mini_tpch(), governor=governor)
    held = governor.admit(cached=True, token=None)
    worker = threading.Thread(target=engine.query, args=(Q5_SQL,))
    worker.start()
    try:
        deadline = time.monotonic() + 30
        while True:
            rows = engine.debug_snapshot("queries")["queries"]
            if rows and rows[0]["phase"] == "admission.wait":
                break
            assert time.monotonic() < deadline, rows
            time.sleep(0.005)
        time.sleep(0.2)
        row = engine.debug_snapshot("queries")["queries"][0]
    finally:
        governor.release(held)
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert row["phase"] == "admission.wait"
    assert row["queued"] is True
    assert row["admission_wait_ms"] >= 200
    assert row["elapsed_ms"] >= row["admission_wait_ms"]
    entry = engine.flight.snapshot(n=1)[0]
    assert entry["outcome"] == "ok"
    assert entry["queued"] is True and entry["admission_wait_ms"] >= 200
