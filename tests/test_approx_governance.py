"""Degrade-to-approximate: governor, observability, wire, topologies.

Pins the PR-10 governance contract:

* an overloaded query whose policy is ``"allow"`` and which a sample
  covers is answered approximately (``mode="degraded"``) instead of
  raising :class:`RetryableAdmissionError` -- and the degrade is *not*
  double-booked as a rejection in the metrics;
* ``"never"`` keeps the pre-approx behavior exactly (typed
  ``queue_full`` rejection), as does ``"allow"`` without any sample;
* the whole episode correlates under one ``query_id`` across the
  flight recorder, the JSONL query log, and the result -- and every
  flight/log event (rejections and kills included) carries the
  ``annotations`` block uniformly;
* the tcp surface ships ``approx`` on query frames and metadata on the
  ``done`` frame; the shard surface rejects ``approx`` with
  :class:`UnsupportedOnTopology`.
"""

import io
import json

import pytest

import repro
from repro import LevelHeadedEngine
from repro.client import ReproClient
from repro.core.governor import Governor
from repro.errors import ReproError, RetryableAdmissionError, UnsupportedOnTopology
from repro.server import ReproServer

from .conftest import make_mini_tpch

SQL = (
    "SELECT l_suppkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS lines "
    "FROM lineitem GROUP BY l_suppkey"
)


def _overloaded_engine(**connect_kwargs):
    """An engine whose single admission slot is already held."""
    governor = Governor(max_concurrency=1, max_queue=0)
    engine = repro.connect(
        catalog=make_mini_tpch(), governor=governor, **connect_kwargs
    )
    held = governor.admit(cached=True, token=None)
    return engine, governor, held


# ---------------------------------------------------------------------------
# the degrade rung
# ---------------------------------------------------------------------------


PARAM_SQL = SQL.replace("GROUP BY", "WHERE l_quantity >= ? GROUP BY")


@pytest.mark.parametrize(
    "run",
    [
        lambda engine: engine.query(SQL),
        # the rung lives in the one query lifecycle, so a prepared
        # execution (pre-check on the literal-substituted statement)
        # degrades exactly like ad-hoc text
        lambda engine: engine.prepare(PARAM_SQL).execute([0]),
    ],
    ids=["adhoc", "prepared"],
)
def test_overloaded_allow_query_degrades_with_error_bars(run):
    engine, governor, held = _overloaded_engine(approx="allow")
    engine.create_sample("lineitem", 0.5, seed=1)
    sink = io.StringIO()
    engine.enable_query_log(sink)
    try:
        result = run(engine)
    finally:
        governor.release(held)
    assert result.approx is not None
    assert result.approx["mode"] == "degraded"
    assert result.approx["fraction"] == 0.5
    errors = {
        name: info["error"]
        for name, info in result.approx["columns"].items()
        if info["scalable"]
    }
    assert errors and all(err is not None for err in errors.values())
    # one query_id ties result, flight entry, and JSONL event together
    entry = engine.flight.snapshot(n=1)[0]
    assert entry["query_id"] == result.query_id
    assert entry["outcome"] == "ok"
    assert entry["annotations"]["approx"]["mode"] == "degraded"
    assert entry["annotations"]["approx"]["errors"] == {
        name: info["error"] for name, info in result.approx["columns"].items()
    }
    event = json.loads(sink.getvalue().strip().splitlines()[-1])
    assert event["query_id"] == result.query_id
    assert event["annotations"]["approx"]["mode"] == "degraded"
    # a degrade is not a rejection: it has its own counter
    assert engine.metrics.counter("degraded_to_approx") == 1
    assert engine.metrics.counter("admission_rejected") == 0
    prom = engine.metrics.to_prometheus()
    assert "repro_degraded_to_approx_total 1" in prom
    assert "repro_approx_queries_total 1" in prom


def test_never_policy_still_rejects_queue_full():
    engine, governor, held = _overloaded_engine()  # default approx="never"
    engine.create_sample("lineitem", 0.5, seed=1)
    try:
        with pytest.raises(RetryableAdmissionError) as info:
            engine.query(SQL)
    finally:
        governor.release(held)
    assert info.value.cause == "queue_full"
    assert engine.metrics.counter("admission_rejected") == 1
    assert engine.metrics.counter("degraded_to_approx") == 0
    # the rejection leaves a correlated flight entry too
    entry = engine.flight.snapshot(outcome="rejected")[0]
    assert entry["query_id"] == getattr(info.value, "query_id", None)


def test_allow_without_sample_coverage_still_rejects():
    engine, governor, held = _overloaded_engine(approx="allow")
    try:
        with pytest.raises(RetryableAdmissionError) as info:
            engine.query(SQL)
    finally:
        governor.release(held)
    assert info.value.cause == "queue_full"
    # counted as a rejection exactly once, never as a degrade
    assert engine.metrics.counter("admission_rejected") == 1
    assert engine.metrics.counter("degraded_to_approx") == 0


def test_uncontended_allow_runs_exact():
    engine = repro.connect(
        catalog=make_mini_tpch(), max_concurrency=4, approx="allow"
    )
    engine.create_sample("lineitem", 0.5, seed=1)
    result = engine.query(SQL)
    assert result.approx is None  # no overload, no degrade


# ---------------------------------------------------------------------------
# uniform annotations on non-ok outcomes
# ---------------------------------------------------------------------------


def test_rejected_and_killed_events_carry_annotations_uniformly():
    engine, governor, held = _overloaded_engine()
    try:
        with pytest.raises(RetryableAdmissionError):
            engine.query(SQL)
    finally:
        governor.release(held)
    rejected = engine.flight.snapshot(outcome="rejected")[0]
    assert rejected["annotations"] == {
        "feedback": {"q_error_max": None, "drifted": False},
    }
    # a killed_query log event carries the block too, empty when unused
    from repro.obs.export import QueryLog

    sink = io.StringIO()
    QueryLog(sink).record(
        sql="q", mode="join", cache_outcome="hit", compile_seconds=None,
        execute_seconds=0.5, rows=0, outcome="timeout", plan_text="p",
    )
    killed = json.loads(sink.getvalue())
    assert killed["event"] == "killed_query"
    assert killed["annotations"] == {}  # present even when empty
    # and a real engine-level kill records an approx-free flight block
    with pytest.raises(repro.QueryTimeoutError):
        engine.query(
            "SELECT count(*) AS n FROM lineitem l1, lineitem l2, lineitem l3 "
            "WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey",
            timeout_ms=0.0001,
        )
    timeout_entry = engine.flight.snapshot(outcome="timeout")[0]
    assert "approx" not in timeout_entry["annotations"]
    assert "feedback" in timeout_entry["annotations"]


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


@pytest.fixture()
def served_engine():
    engine = repro.connect(catalog=make_mini_tpch(), max_concurrency=4)
    engine.create_sample("lineitem", 1.0, seed=0)
    server = ReproServer(engine, port=0, http_port=0)
    server.start()
    yield engine, server
    server.stop()


def test_wire_query_carries_approx_metadata(served_engine):
    engine, server = served_engine
    with ReproClient(server.host, server.port) as client:
        exact = client.query(SQL)
        assert exact.approx is None
        approx = client.query(SQL, approx=True)
        assert approx.approx is not None
        assert approx.approx["mode"] == "forced"
        assert approx.approx["fraction"] == 1.0
        # fraction=1.0: the wire answer matches exact bit-for-bit
        assert approx.sorted_rows() == exact.sorted_rows()


def test_wire_session_default_approx(served_engine):
    engine, server = served_engine
    with ReproClient(server.host, server.port) as client:
        client.default_approx = "force"
        r = client.query(SQL)
        assert r.approx is not None and r.approx["mode"] == "forced"
        assert client.query(SQL, approx=False).approx is None  # per-call wins


def test_wire_prepared_execute_approx(served_engine):
    engine, server = served_engine
    with ReproClient(server.host, server.port) as client:
        stmt = client.prepare(SQL)
        assert stmt.execute().approx is None
        r = stmt.execute(approx=True)
        assert r.approx is not None and r.approx["fraction"] == 1.0


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


def test_shard_surface_rejects_approx():
    with pytest.raises(UnsupportedOnTopology) as info:
        repro.connect("shard://local", catalog=make_mini_tpch(), approx="allow")
    assert info.value.option == "approx" and info.value.topology == "shard"
    # the DSN spelling is rejected at parse time
    with pytest.raises(ReproError):
        repro.connect("shard://local?approx=force", catalog=make_mini_tpch())
