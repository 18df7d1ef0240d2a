"""Governance over the wire: admission, cancel, timeout, e2e serving.

The serving layer must surface the PR-4 governance contract to network
clients unchanged:

* concurrent clients behind a two-slot governor all complete (or see a
  typed, retryable shed) -- and :func:`repro.retry_admission` works on
  client-side calls because the admission error rebuilds with its
  ``retry_after_ms``;
* a wire-level ``cancel`` kills a long scan within the same latency
  envelope PR-4 pinned for in-process cancellation;
* per-query ``timeout_ms`` travels with the query frame and comes back
  as :class:`repro.QueryTimeoutError`;
* eight concurrent clients running mixed SQL + LA workloads against one
  server get results identical to the in-process engine, the /metrics
  scrape shows the admission counters, and zero governor slots leak;
* ``repro.cli serve --load`` round-trips a persisted TPC-H catalog:
  the served Q1 answer equals the in-process answer on the same files.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from repro import LevelHeadedEngine, RetryableAdmissionError, retry_admission
from repro.client import connect
from repro.core.governor import Governor
from repro.datasets.tpch import generate_tpch
from repro.datasets.tpch.queries import TPCH_QUERIES
from repro.server import ReproServer
from repro.storage.persist import load_catalog, save_catalog

from tests.conftest import CYCLE4_SQL, SLOW_GRAPH, graph_catalog

from .test_governance import DEGREE_SQL

MATMUL_SQL = (
    "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v FROM matrix m1, matrix m2 "
    "WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
)


def _graph_engine(max_concurrency=2, **kwargs):
    governor = (
        Governor(max_concurrency=max_concurrency, **kwargs)
        if max_concurrency is not None
        else None
    )
    engine = LevelHeadedEngine(graph_catalog(150, 3_000), governor=governor)
    engine.register_matrix(
        "matrix",
        rows=[0, 0, 1, 2, 3], cols=[0, 2, 0, 1, 3], values=[0.5, 1.5, 2.0, 3.0, 4.0],
        n=4,
    )
    return engine


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------


def test_queued_client_sees_retryable_error_with_retry_after():
    engine = _graph_engine(max_concurrency=1, max_queue=0)
    server = ReproServer(engine, port=0)
    server.start()
    try:
        held = engine.governor.admit(cached=True, token=None)
        try:
            with connect(server.host, server.port) as client:
                with pytest.raises(RetryableAdmissionError) as excinfo:
                    client.query(DEGREE_SQL)
                assert excinfo.value.retry_after_ms > 0
        finally:
            engine.governor.release(held)
        # the standard client-side backoff helper works over the wire
        with connect(server.host, server.port) as client:
            rows = retry_admission(
                lambda: client.query(DEGREE_SQL).sorted_rows(), attempts=8
            )
        assert rows == engine.query(DEGREE_SQL).sorted_rows()
    finally:
        server.stop()


def test_concurrent_clients_fair_admission_two_slots():
    engine = _graph_engine(max_concurrency=2)
    expected = LevelHeadedEngine(graph_catalog(150, 3_000)).query(
        DEGREE_SQL
    ).sorted_rows()
    server = ReproServer(engine, port=0)
    server.start()
    results, failures = [], []

    def client_session():
        try:
            with connect(server.host, server.port) as client:
                rows = retry_admission(
                    lambda: client.query(DEGREE_SQL).sorted_rows(), attempts=8
                )
            results.append(rows)
        except RetryableAdmissionError as exc:
            failures.append(exc)

    try:
        threads = [threading.Thread(target=client_session) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(not t.is_alive() for t in threads)
        assert len(results) + len(failures) == 6
        assert results, "admission starved every client"
        for rows in results:
            assert rows == expected
        # admissions were tagged per session while in flight; afterwards
        # nothing is held
        snap = engine.governor.snapshot()
        assert snap["active"] == 0
        assert snap["sessions"] == {}
        assert engine.governor.counters["admitted"] >= len(results)
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# cancellation and deadlines over the wire
# ---------------------------------------------------------------------------


def test_wire_cancel_kills_long_scan_quickly():
    # ~3s of serial work; the wire-level cancel must kill it fast.
    engine = LevelHeadedEngine(
        graph_catalog(*SLOW_GRAPH),
        governor=Governor(max_concurrency=2),
    )
    server = ReproServer(engine, port=0)
    server.start()
    client = connect(server.host, server.port)
    outcome = {}

    def run():
        try:
            client.query(CYCLE4_SQL)
            outcome["finished"] = True
        except repro.QueryCancelledError as exc:
            outcome["cancelled"] = exc

    try:
        worker = threading.Thread(target=run)
        worker.start()
        deadline = time.time() + 5
        while client._active_qid is None and time.time() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # let the scan get going
        cancel_start = time.perf_counter()
        assert client.cancel_active("wire cancel test")
        worker.join(20)
        cancel_latency = time.perf_counter() - cancel_start
        assert not worker.is_alive()
        assert "cancelled" in outcome, f"query survived cancel: {outcome}"
        assert "wire cancel test" in str(outcome["cancelled"])
        # the wire error carries the query_id of its flight entry
        qid = outcome["cancelled"].query_id
        assert qid
        cancelled = engine.debug_snapshot("flight", outcome="cancelled")
        assert [e["query_id"] for e in cancelled["entries"]] == [qid]
        # same envelope PR-4 pins for in-process cancellation: the kill
        # lands far faster than the query's natural ~3s runtime
        assert cancel_latency < 1.0
        assert engine.metrics.counter("server_cancel_frames") == 1
    finally:
        client.close()
        server.stop()
    snap = engine.governor.snapshot()
    assert snap["active"] == 0 and snap["sessions"] == {}
    assert engine.debug_snapshot("queries") == {"count": 0, "queries": []}


def test_wire_timeout_returns_typed_error_within_envelope():
    engine = LevelHeadedEngine(
        graph_catalog(*SLOW_GRAPH),
        governor=Governor(max_concurrency=2),
    )
    server = ReproServer(engine, port=0)
    server.start()
    try:
        with connect(server.host, server.port) as client:
            start = time.perf_counter()
            with pytest.raises(repro.QueryTimeoutError) as excinfo:
                client.query(CYCLE4_SQL, timeout_ms=150)
            elapsed_ms = (time.perf_counter() - start) * 1000
        assert excinfo.value.timeout_ms == 150
        # 1.5x the PR-4 envelope, plus generous wire slack
        assert elapsed_ms < 150 * 1.5 + 500
    finally:
        server.stop()
    assert engine.governor.snapshot()["active"] == 0


# ---------------------------------------------------------------------------
# the acceptance e2e: 8 concurrent mixed-workload clients
# ---------------------------------------------------------------------------


def test_eight_concurrent_clients_mixed_sql_and_la():
    engine = _graph_engine(max_concurrency=2)
    reference = _graph_engine(max_concurrency=None)  # ungoverned twin
    expected = {
        "sql": reference.query(DEGREE_SQL).sorted_rows(),
        "la": reference.query(MATMUL_SQL).sorted_rows(),
    }
    server = ReproServer(engine, port=0, http_port=0)
    server.start()
    results, failures = [], []

    def client_session(i):
        kind = "la" if i % 2 else "sql"
        sql = MATMUL_SQL if kind == "la" else DEGREE_SQL
        try:
            with connect(server.host, server.port) as client:
                rows = retry_admission(
                    lambda: client.query(sql).sorted_rows(), attempts=10
                )
            results.append((kind, rows))
        except RetryableAdmissionError as exc:
            failures.append(exc)

    try:
        threads = [
            threading.Thread(target=client_session, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(not t.is_alive() for t in threads)
        assert len(results) + len(failures) == 8
        assert len(results) >= 4, f"too many sheds: {len(failures)}"
        for kind, rows in results:
            assert rows == expected[kind], f"{kind} result diverged over the wire"

        # governor admission counters are visible in the /metrics scrape
        base = f"http://{server.host}:{server.http_port}"
        scrape = urllib.request.urlopen(f"{base}/metrics", timeout=10).read().decode()
        assert "repro_admission_admitted_total" in scrape
        assert "repro_server_queries_total" in scrape
        assert "repro_server_connections_opened_total" in scrape
        assert "repro_server_request_seconds_count" in scrape
    finally:
        server.stop()

    # zero leaked governor slots after every client disconnected
    snap = engine.governor.snapshot()
    assert snap["active"] == 0
    assert snap["sessions"] == {}
    assert engine.metrics.gauge("server_active_connections") == 0
    assert engine.metrics.counter("server_connections_opened") == engine.metrics.counter(
        "server_connections_closed"
    )


# ---------------------------------------------------------------------------
# serve --load round-trip on a persisted TPC-H catalog
# ---------------------------------------------------------------------------


def test_serve_load_round_trips_tpch_q1(tmp_path):
    data_dir = str(tmp_path / "tpch")
    save_catalog(generate_tpch(scale_factor=0.01), data_dir)
    q1 = TPCH_QUERIES["Q1"]
    expected = LevelHeadedEngine(load_catalog(data_dir)).query(q1)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--load", data_dir, "--port", "0", "--max-concurrency", "4",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        banner = proc.stdout.readline()
        assert "serving" in banner, f"unexpected banner: {banner!r}"
        port = int(banner.strip().rsplit(":", 1)[-1])
        with connect("127.0.0.1", port) as client:
            served = client.query(q1)
        assert served.names == expected.names
        assert served.to_rows() == expected.to_rows()  # byte-identical rows
        for name in expected.names:
            local_dtype = expected.columns[name].dtype
            if local_dtype.kind in "iufb":
                assert served.columns[name].dtype == local_dtype
            else:  # strings travel as JSON and come back as object arrays
                assert served.columns[name].dtype.kind in "OU"
    finally:
        proc.send_signal(2)
        assert proc.wait(timeout=30) == 0
