"""Serving-layer tests: protocol, round-trips, robustness, HTTP, shutdown.

Pins the PR-5 wire contract:

* framing survives malformed, truncated, oversized, and unknown frames
  without crashing the server (log-and-continue);
* a served query returns the same :class:`ResultTable` rows, dtypes,
  and column names as the in-process engine;
* prepared statements, explain, and the error taxonomy work over the
  wire (server-side exceptions rebuild as the same typed classes);
* a mid-stream disconnect frees the session's governor slots;
* ``GET /metrics`` and ``GET /healthz`` answer on the HTTP sidecar;
* ``stop()`` leaves no repro-server threads or bound sockets behind.
"""

import contextlib
import json
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro
from repro.client import ReproClient, connect
from repro.server import ReproServer
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.errors import error_from_wire, error_to_wire

from .conftest import make_mini_tpch


def _server_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-server")
    ]


@pytest.fixture()
def served_engine():
    engine = repro.connect(catalog=make_mini_tpch(), max_concurrency=4)
    server = ReproServer(engine, port=0, http_port=0)
    server.start()
    yield engine, server
    server.stop()
    assert _server_threads() == []


def _raw_connection(server):
    sock = socket.create_connection((server.host, server.port), timeout=10)
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    return sock, rfile, wfile


def _raw_hello(server):
    sock, rfile, wfile = _raw_connection(server)
    write_frame(wfile, {"type": "hello", "version": PROTOCOL_VERSION})
    reply = read_frame(rfile)
    assert reply["type"] == "hello"
    return sock, rfile, wfile


# ---------------------------------------------------------------------------
# framing primitives
# ---------------------------------------------------------------------------


def test_frame_round_trip_via_streams(tmp_path):
    path = tmp_path / "frames.bin"
    with open(path, "wb") as out:
        write_frame(out, {"type": "a", "n": 1})
        write_frame(out, {"type": "b", "rows": [[1, "x"], [2, "y"]]})
    with open(path, "rb") as stream:
        assert read_frame(stream) == {"type": "a", "n": 1}
        assert read_frame(stream)["rows"] == [[1, "x"], [2, "y"]]
        assert read_frame(stream) is None  # clean EOF


def test_oversized_outgoing_frame_is_rejected(tmp_path):
    with open(tmp_path / "big.bin", "wb") as out:
        with pytest.raises(ProtocolError, match="exceeds"):
            write_frame(out, {"type": "x", "pad": "y" * 64}, max_frame_bytes=32)


def test_truncated_frame_raises_protocol_error(tmp_path):
    path = tmp_path / "trunc.bin"
    payload = json.dumps({"type": "x"}).encode()
    with open(path, "wb") as out:
        out.write(struct.pack("!I", len(payload)) + payload[:-3])
    with open(path, "rb") as stream:
        with pytest.raises(ProtocolError, match="truncated"):
            read_frame(stream)


def test_error_wire_round_trip_rebuilds_typed_exception():
    wire = error_to_wire(repro.RetryableAdmissionError("busy", retry_after_ms=42))
    assert wire["code"] == "admission_retry"
    rebuilt = error_from_wire(wire)
    assert isinstance(rebuilt, repro.RetryableAdmissionError)
    assert rebuilt.retry_after_ms == 42
    protocol = error_from_wire(error_to_wire(ProtocolError("bad frame")))
    assert isinstance(protocol, ProtocolError)


# ---------------------------------------------------------------------------
# query round-trips
# ---------------------------------------------------------------------------

Q1ISH = (
    "SELECT l.l_suppkey, sum(l.l_quantity) AS sum_qty, count(*) AS n "
    "FROM lineitem l GROUP BY l.l_suppkey"
)


def test_hello_announces_session_and_feedback_policy(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        assert client.session and client.server
        assert client.batch_rows == server.batch_rows
        assert client.feedback == {
            "q_error_threshold": engine.plan_cache.q_error_threshold,
            "drift_runs": engine.plan_cache.drift_runs,
        }


def test_served_query_matches_in_process(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        remote = client.query(Q1ISH)
    local = engine.query(Q1ISH)
    assert remote.names == local.names
    assert sorted(remote.to_rows()) == sorted(local.to_rows())
    for name in local.names:
        assert remote.columns[name].dtype.kind == local.columns[name].dtype.kind


def test_batching_streams_large_results_intact(served_engine):
    engine, server = served_engine
    # tiny batches force many batch frames for a multi-row result
    small = ReproServer(engine, port=0, batch_rows=2)
    small.start()
    try:
        sql = (
            "SELECT l.l_orderkey, l.l_suppkey, sum(l.l_quantity) AS q "
            "FROM lineitem l GROUP BY l.l_orderkey, l.l_suppkey"
        )
        with connect(small.host, small.port) as client:
            remote = client.query(sql)
        local = engine.query(sql)
        assert remote.num_rows > small.batch_rows  # really crossed batches
        assert sorted(remote.to_rows()) == sorted(local.to_rows())
    finally:
        small.stop()


def test_prepared_statement_over_the_wire(served_engine):
    engine, server = served_engine
    sql = "SELECT count(*) AS n FROM lineitem l WHERE l.l_quantity > ?"
    with connect(server.host, server.port) as client:
        with client.prepare(sql) as stmt:
            assert stmt.params == 1
            local = engine.prepare(sql)
            for qty in (0.0, 10.0, 1e9):
                assert (
                    stmt.execute([qty]).single_value()
                    == local.execute([qty]).single_value()
                )
        with pytest.raises(repro.ReproError, match="closed"):
            stmt.execute([1.0])


def test_unknown_statement_id_is_typed_error(served_engine):
    _, server = served_engine
    with connect(server.host, server.port) as client:
        sock_alive_before = client.session
        with pytest.raises(repro.ReproError, match="unknown prepared statement"):
            stmt = client.prepare("SELECT count(*) AS n FROM lineitem l")
            stmt.stmt_id = 9999
            stmt.execute()
        # the connection survived the error
        assert client.query("SELECT count(*) AS n FROM lineitem l").single_value() > 0
        assert client.session == sock_alive_before


def test_explain_over_the_wire(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        assert client.explain(Q1ISH).splitlines()[0] == engine.explain(Q1ISH).splitlines()[0]


def test_server_error_becomes_same_typed_exception(served_engine):
    _, server = served_engine
    with connect(server.host, server.port) as client:
        with pytest.raises(repro.ParseError):
            client.query("SELEKT broken")
        with pytest.raises(repro.BindError):
            client.query("SELECT count(*) AS n FROM no_such_table t")
        # connection still serves after both errors
        assert client.query("SELECT count(*) AS n FROM lineitem l").single_value() > 0


def test_concurrent_cancel_of_active_query(served_engine):
    _, server = served_engine
    client = connect(server.host, server.port)
    errors = []

    def run():
        try:
            client.query(
                "SELECT count(*) AS n FROM lineitem l1, lineitem l2, lineitem l3 "
                "WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey"
            )
        except repro.QueryCancelledError as exc:
            errors.append(exc)
        except repro.ReproError as exc:  # pragma: no cover -- diagnosing aid
            errors.append(exc)

    worker = threading.Thread(target=run)
    worker.start()
    deadline = time.time() + 5
    while client._active_qid is None and time.time() < deadline:
        time.sleep(0.005)
    client.cancel_active("killed from test")
    worker.join(20)
    client.close()
    # the query either finished before the cancel landed or was killed;
    # a cancel must produce the typed error, never a protocol failure
    assert all(isinstance(e, repro.QueryCancelledError) for e in errors)


# ---------------------------------------------------------------------------
# protocol robustness: the server must log-and-continue
# ---------------------------------------------------------------------------


def test_first_frame_must_be_hello(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_connection(server)
    write_frame(wfile, {"type": "query", "qid": 1, "sql": "SELECT 1"})
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert reply["error"]["code"] == "protocol"
    assert read_frame(rfile) is None  # server hung up
    sock.close()


def test_version_mismatch_is_rejected(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_connection(server)
    write_frame(wfile, {"type": "hello", "version": 999})
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert "version" in reply["error"]["message"]
    sock.close()


def test_malformed_payload_gets_error_and_disconnect(served_engine):
    engine, server = served_engine
    before = engine.metrics.counter("server_protocol_errors")
    sock, rfile, wfile = _raw_hello(server)
    garbage = b"this is not json"
    wfile.write(struct.pack("!I", len(garbage)) + garbage)
    wfile.flush()
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert reply["error"]["code"] == "protocol"
    assert read_frame(rfile) is None
    sock.close()
    assert engine.metrics.counter("server_protocol_errors") > before
    # and the server still answers new connections
    with connect(server.host, server.port) as client:
        assert client.query("SELECT count(*) AS n FROM lineitem l").single_value() > 0


def test_oversized_announced_frame_is_cut_off(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_hello(server)
    wfile.write(struct.pack("!I", MAX_FRAME_BYTES + 1))
    wfile.flush()
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert "frame limit" in reply["error"]["message"]
    sock.close()


def test_truncated_frame_mid_payload_drops_connection(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_hello(server)
    payload = json.dumps({"type": "query", "qid": 1, "sql": "SELECT 1"}).encode()
    wfile.write(struct.pack("!I", len(payload)) + payload[: len(payload) // 2])
    wfile.flush()
    sock.shutdown(socket.SHUT_WR)  # half-close: the read side sees truncation
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert "truncated" in reply["error"]["message"]
    sock.close()


def test_unknown_message_type_keeps_connection_alive(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_hello(server)
    write_frame(wfile, {"type": "frobnicate"})
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert "unknown message type" in reply["error"]["message"]
    # same connection still serves queries afterwards
    write_frame(wfile, {"type": "query", "qid": 7, "sql": "SELECT count(*) AS n FROM lineitem l"})
    kinds = []
    while True:
        frame = read_frame(rfile)
        kinds.append(frame["type"])
        if frame["type"] in ("done", "error"):
            break
    assert kinds[0] == "result_header"
    assert kinds[-1] == "done"
    write_frame(wfile, {"type": "close"})
    assert read_frame(rfile)["type"] == "bye"
    sock.close()


def test_missing_qid_is_protocol_error(served_engine):
    _, server = served_engine
    sock, rfile, wfile = _raw_hello(server)
    write_frame(wfile, {"type": "query", "sql": "SELECT 1"})
    reply = read_frame(rfile)
    assert reply["type"] == "error"
    assert "qid" in reply["error"]["message"]
    sock.close()


def test_midstream_disconnect_frees_governor_slots(served_engine):
    engine, server = served_engine
    sock, rfile, wfile = _raw_hello(server)
    write_frame(
        wfile,
        {
            "type": "query",
            "qid": 1,
            "sql": (
                "SELECT count(*) AS n FROM lineitem l1, lineitem l2, lineitem l3 "
                "WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey"
            ),
        },
    )
    read_frame(rfile)  # wait for the header: the query is definitely running
    # vanish mid-stream (makefile objects hold the fd; close them all)
    sock.shutdown(socket.SHUT_RDWR)
    rfile.close()
    wfile.close()
    sock.close()
    deadline = time.time() + 20
    while time.time() < deadline:
        snap = engine.governor.snapshot()
        if (
            snap["active"] == 0
            and not snap["sessions"]
            and engine.metrics.counter("server_connections_closed") >= 1
        ):
            break
        time.sleep(0.02)
    snap = engine.governor.snapshot()
    assert snap["active"] == 0
    assert snap["sessions"] == {}
    assert engine.metrics.counter("server_connections_closed") >= 1


# ---------------------------------------------------------------------------
# HTTP sidecar
# ---------------------------------------------------------------------------


def test_http_metrics_and_healthz(served_engine):
    engine, server = served_engine
    with contextlib.ExitStack() as stack:
        for _ in range(4):
            client = stack.enter_context(connect(server.host, server.port))
            client.query("SELECT count(*) AS n FROM lineitem l")
        base = f"http://{server.host}:{server.http_port}"
        body = urllib.request.urlopen(f"{base}/metrics", timeout=10).read().decode()
        assert "repro_server_queries_total" in body
        assert "repro_server_active_connections 4" in body
        assert "repro_queries_served_total" in body
        assert "repro_admission_admitted_total" in body
        health = json.loads(
            urllib.request.urlopen(f"{base}/healthz", timeout=10).read().decode()
        )
        assert health["status"] == "ok"
        assert health["active_connections"] == 4
        assert health["inflight_queries"] == 0
        assert health["plan_cache"]["entries"] == 1
        assert health["plan_cache"]["capacity"] == engine.plan_cache.capacity
        assert health["governor"] == {
            "active": 0,
            "waiting": 0,
            "max_queue": engine.governor.max_queue,
            "load_shedding": False,
        }
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/nope", timeout=10)


# ---------------------------------------------------------------------------
# correlation: wire traces, query ids, debug frames, live endpoints
# ---------------------------------------------------------------------------


def test_remote_trace_stitches_one_correlated_span_tree(served_engine):
    import io

    engine, server = served_engine
    sink = io.StringIO()
    engine.enable_query_log(sink)
    with connect(server.host, server.port) as client:
        result = client.query(Q1ISH, trace=True)
    qid = result.query_id
    assert qid
    root = result.trace
    assert root is not None and root.name == "client.query"
    # one stitched tree: client send + wire, with the server's
    # admission/compile/execute spans grafted inside the wire span
    assert [c.name for c in root.children] == ["client.send", "wire"]
    wire = root.children[1]
    assert wire.children and wire.children[0].name == "query"
    for name in ("admission.wait", "compile", "execute"):
        assert root.find(name) is not None
    # the one query_id (and trace_id) appears on both ends of the tree
    assert root.payload["query_id"] == qid
    server_root = root.find("query")
    assert server_root.payload["query_id"] == qid
    assert server_root.payload["trace_id"] == root.payload["trace_id"]
    # ... and in the server's JSONL query log
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert qid in [e["query_id"] for e in events]
    # ... and in the flight recorder
    flight = engine.debug_snapshot("flight")
    assert qid in [e["query_id"] for e in flight["entries"]]
    # the stitched tree exports to Chrome trace like a local one
    from repro.obs import to_chrome_trace

    doc = to_chrome_trace(root)
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"client.query", "client.send", "wire", "query", "execute"} <= names


def test_untraced_remote_query_still_carries_query_id(served_engine):
    _, server = served_engine
    with connect(server.host, server.port) as client:
        result = client.query(Q1ISH)
    assert result.query_id
    assert result.trace is None


def test_wire_error_carries_query_id_matching_flight_entry(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        with pytest.raises(repro.BindError) as info:
            client.query("SELECT count(*) AS n FROM no_such_table t")
    qid = getattr(info.value, "query_id", None)
    assert qid
    flight = engine.debug_snapshot("flight", outcome="error")
    assert qid in [e["query_id"] for e in flight["entries"]]


def test_debug_frames_over_the_wire(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        client.query(Q1ISH)
        flight = client.debug("flight", n=5)
        assert flight["capacity"] == engine.flight.capacity
        assert flight["entries"] and flight["entries"][0]["outcome"] == "ok"
        assert client.debug("queries") == {"count": 0, "queries": []}
        plans = client.debug("plans")
        assert plans["size"] == len(plans["entries"]) == 1
        gov = client.debug("governor")["governor"]
        assert gov["max_queue"] == engine.governor.max_queue
        with pytest.raises(repro.ReproError, match="unknown debug view"):
            client.debug("bogus")
        # the connection survived the bad debug request
        assert client.query(Q1ISH).num_rows > 0


def test_debug_endpoints_concurrent_with_queries(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "1")
    engine = repro.connect(catalog=make_mini_tpch(), max_concurrency=4)
    assert engine.config.parallel  # the env toggle reached the config
    server = ReproServer(engine, port=0, http_port=0)
    server.start()
    try:
        stop = threading.Event()
        query_errors = []

        def churn():
            with connect(server.host, server.port) as client:
                while not stop.is_set():
                    try:
                        client.query(Q1ISH)
                    except repro.ReproError as exc:
                        query_errors.append(exc)
                        return

        workers = [threading.Thread(target=churn) for _ in range(3)]
        for w in workers:
            w.start()
        base = f"http://{server.host}:{server.http_port}"
        deadline = time.time() + 2.0
        scrapes = 0
        while time.time() < deadline:
            for what in ("queries", "flight", "plans", "governor"):
                body = urllib.request.urlopen(
                    f"{base}/debug/{what}", timeout=10
                ).read()
                json.loads(body)  # every scrape is whole, valid JSON
                scrapes += 1
            health = json.loads(
                urllib.request.urlopen(f"{base}/healthz", timeout=10).read()
            )
            assert health["status"] in ("ok", "overloaded")
        stop.set()
        for w in workers:
            w.join(20)
        assert not query_errors
        assert scrapes >= 4
        flight = engine.debug_snapshot("flight")
        assert flight["entries"]
        ids = [e["query_id"] for e in flight["entries"]]
        assert len(set(ids)) == len(ids)
    finally:
        server.stop()


def test_http_debug_flight_filters_via_query_string(served_engine):
    engine, server = served_engine
    with connect(server.host, server.port) as client:
        client.query(Q1ISH)
        client.query("SELECT count(*) AS n FROM lineitem l")
        with pytest.raises(repro.BindError):
            client.query("SELECT count(*) AS n FROM no_such_table t")
    base = f"http://{server.host}:{server.http_port}"
    flight = json.loads(
        urllib.request.urlopen(f"{base}/debug/flight", timeout=10).read()
    )
    ids = [e["query_id"] for e in flight["entries"]]
    assert len(ids) == len(set(ids)) == 3
    ok_modes = {e["mode"] for e in flight["entries"] if e["outcome"] == "ok"}
    assert ok_modes == {"join", "scan"}
    live = json.loads(
        urllib.request.urlopen(f"{base}/debug/queries", timeout=10).read()
    )
    assert live == {"count": 0, "queries": []}
    flight = json.loads(
        urllib.request.urlopen(f"{base}/debug/flight?n=1", timeout=10).read()
    )
    assert len(flight["entries"]) == 1
    errors = json.loads(
        urllib.request.urlopen(
            f"{base}/debug/flight?outcome=error", timeout=10
        ).read()
    )
    assert [e["outcome"] for e in errors["entries"]] == ["error"]
    bad = urllib.request.Request(f"{base}/debug/flight?n=zebra")
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(bad, timeout=10)
    assert info.value.code == 400
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(f"{base}/debug/nothing", timeout=10)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_metrics_http_lifecycle_is_idempotent_and_restartable():
    from repro.server.http import MetricsHTTPServer

    engine = repro.connect(catalog=make_mini_tpch())
    http = MetricsHTTPServer(engine, port=0)
    host, port = http.start()
    assert http.start() == (host, port)  # idempotent, same address
    body = urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=10).read()
    assert json.loads(body)["status"] == "ok"
    http.stop()
    http.stop()  # idempotent
    with pytest.raises((ConnectionError, OSError)):
        urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=2)
    host2, port2 = http.start()  # re-startable after stop
    body = urllib.request.urlopen(
        f"http://{host2}:{port2}/healthz", timeout=10
    ).read()
    assert json.loads(body)["status"] == "ok"
    http.stop()


def test_stop_is_clean_and_idempotent():
    engine = repro.connect(catalog=make_mini_tpch(), max_concurrency=2)
    server = ReproServer(engine, port=0, http_port=0)
    host, port = server.start()
    with connect(host, port) as client:
        client.query("SELECT count(*) AS n FROM lineitem l")
    server.stop()
    server.stop()  # idempotent
    assert _server_threads() == []
    snap = engine.governor.snapshot()
    assert snap["active"] == 0 and snap["sessions"] == {}
    # both ports are released and re-bindable
    for bound in (port, server.http_port):
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, bound))
        probe.close()


def test_stop_kills_connected_sessions():
    engine = repro.connect(catalog=make_mini_tpch(), max_concurrency=2)
    server = ReproServer(engine, port=0)
    host, port = server.start()
    client = connect(host, port)
    server.stop()
    with pytest.raises((repro.ReproError, OSError)):
        client.query("SELECT count(*) AS n FROM lineitem l")
    client.close()
    assert _server_threads() == []


def test_context_manager_starts_and_stops():
    engine = repro.connect(catalog=make_mini_tpch())
    with ReproServer(engine, port=0) as server:
        with connect(server.host, server.port) as client:
            assert client.server.startswith("repro-server")
    assert _server_threads() == []


def test_lazy_top_level_exports():
    assert repro.ReproServer is ReproServer
    assert repro.ReproClient is ReproClient
    assert "ReproClient" in dir(repro)
