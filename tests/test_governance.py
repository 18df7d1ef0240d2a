"""Governance tests: deadlines, cancellation, admission, degradation.

Pins the PR-4 contract end to end:

* a deadline kills an adversarial cyclic join (a 4-cycle count) within
  1.5x the requested ``timeout_ms``, carrying partial stats and a span tree, and
  the engine serves the next query normally;
* ``QueryHandle.cancel()`` fires cross-thread cooperative cancellation;
* eight concurrent sessions behind one two-slot governor all complete
  (or surface :class:`RetryableAdmissionError`) -- never an unhandled
  :class:`OutOfMemoryBudgetError`;
* the degraded (sorted-sparse) aggregator returns rows identical to the
  dense dict-backed path;
* ``cancel_checks`` is a deterministic per-query counter (a lone query
  and 2 or 4 concurrent ones count the same polls);
* the removed free-function LA surface stays removed: registration
  goes through the engine's handle-first API.
"""

import io
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro import (
    EngineConfig,
    LevelHeadedEngine,
    OutOfMemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    RetryableAdmissionError,
    retry_admission,
)
from repro.core.governor import Governor
from repro.core.prepared import PlanSource
from tests.conftest import CYCLE4_SQL, SLOW_GRAPH, graph_catalog, on_threads

TRIANGLE_SQL = (
    "SELECT count(*) AS triangles FROM edges e1, edges e2, edges e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
)

DEGREE_SQL = "SELECT src, count(*) AS degree FROM edges GROUP BY src"


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


def test_timeout_kills_adversarial_cycle_count_within_budget():
    # ~2s of serial work; the 150ms deadline must kill it within 1.5x.
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    start = time.perf_counter()
    with pytest.raises(QueryTimeoutError) as excinfo:
        engine.query(CYCLE4_SQL, timeout_ms=150)
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert elapsed_ms <= 1.5 * 150, f"kill took {elapsed_ms:.1f}ms"

    exc = excinfo.value
    assert exc.partial_stats is not None
    assert exc.partial_stats.cancel_checks > 0
    assert exc.trace_root is not None  # span tree for the slow-query log
    spans = exc.trace_root.render()
    assert "query" in spans

    # the engine is healthy afterwards: same session, next query runs.
    assert engine.query("SELECT count(*) AS n FROM edges").single_value() > 0
    assert engine.metrics.counter("query_timeouts") >= 1


def test_connect_default_timeout_applies_to_every_query():
    engine = repro.connect(catalog=graph_catalog(*SLOW_GRAPH), timeout_ms=100)
    with pytest.raises(QueryTimeoutError):
        engine.query(CYCLE4_SQL)
    # per-call override beats the session default.
    assert engine.query(DEGREE_SQL, timeout_ms=60_000).num_rows > 0


def test_timeout_error_reaches_prepared_statements():
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    stmt = engine.prepare(CYCLE4_SQL)
    with pytest.raises(QueryTimeoutError) as excinfo:
        stmt.execute(timeout_ms=100)
    assert excinfo.value.partial_stats is not None


def test_timeout_through_execute_carries_the_span_tree():
    # one lifecycle, one clock: every killed run carries its lifecycle
    # span tree, whichever front door it came through
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    plan = engine.compile(CYCLE4_SQL)
    with pytest.raises(QueryTimeoutError) as excinfo:
        engine.execute(plan, timeout_ms=100)
    assert excinfo.value.partial_stats is not None
    assert excinfo.value.trace_root is not None
    assert excinfo.value.trace_root.name == "query"


LIFECYCLE_SPANS = {"query", "parse", "admission.wait", "compile", "execute", "decode"}


def test_untraced_kill_carries_only_the_lifecycle_spans():
    # the lifecycle tree records the phase the query died in and the
    # kill; no planner or executor span was paid for
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    with pytest.raises(QueryTimeoutError) as excinfo:
        engine.query(CYCLE4_SQL, timeout_ms=150)
    root = excinfo.value.trace_root
    assert root.name == "query"
    names = [child.name for child in root.children]
    assert names[-1] == "killed" and names[-2] in LIFECYCLE_SPANS
    assert set(names[:-1]) <= LIFECYCLE_SPANS
    assert all(not child.children for child in root.children)
    assert root.find("node.execute") is None
    assert root.children[-1].payload["outcome"] == "timeout"


def test_slow_query_log_keeps_the_deep_tree_of_a_killed_query():
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    sink = io.StringIO()
    engine.enable_query_log(sink, slow_query_seconds=0.0)
    plan = engine.compile(CYCLE4_SQL)  # the deadline then fires in execution
    with pytest.raises(QueryTimeoutError):
        engine.execute(plan, timeout_ms=150)
    event = json.loads(sink.getvalue().splitlines()[-1])
    assert event["event"] == "killed_query"

    def names(span):
        yield span["name"]
        for child in span.get("children", ()):
            yield from names(child)

    found = list(names(event["trace"]))
    assert found[0] == "query"
    assert "node.execute" in found and "killed" in found


# ---------------------------------------------------------------------------
# cooperative cancellation
# ---------------------------------------------------------------------------


def _wait_for_execute(engine):
    """Block until a query of ``engine`` is past compile, in its join."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if any(q["phase"] == "execute" for q in engine.inflight.snapshot()):
            return
        time.sleep(0.005)
    pytest.fail("query never reached the execute phase")


def test_cross_thread_cancel_via_query_handle():
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    handle = engine.submit(CYCLE4_SQL)
    _wait_for_execute(engine)  # partial stats exist once execution began
    time.sleep(0.05)  # let the worker get into the join
    assert handle.cancel("operator hit the red button")
    with pytest.raises(QueryCancelledError) as excinfo:
        handle.result(timeout=30)
    assert "red button" in str(excinfo.value)
    assert excinfo.value.partial_stats is not None
    assert handle.done
    assert engine.metrics.counter("query_cancellations") >= 1


def test_cancel_token_shared_across_threads():
    engine = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH))
    token = repro.CancelToken()
    errors = []

    def run():
        try:
            engine.query(CYCLE4_SQL, cancel_token=token)
        except QueryCancelledError as exc:
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    _wait_for_execute(engine)
    time.sleep(0.05)
    token.cancel("shutdown")
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(errors) == 1 and "shutdown" in str(errors[0])


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def test_eight_concurrent_sessions_complete_or_shed():
    catalog = graph_catalog(150, 3_000)
    governor = Governor(
        max_concurrency=2, global_memory_budget_bytes=64 * 1024 * 1024
    )
    expected = LevelHeadedEngine(catalog).query(DEGREE_SQL).sorted_rows()

    results, failures = [], []

    def session(i: int) -> None:
        engine = LevelHeadedEngine(catalog, governor=governor)
        try:
            rows = retry_admission(
                lambda: engine.query(DEGREE_SQL).sorted_rows(), attempts=8
            )
            results.append(rows)
        except RetryableAdmissionError as exc:
            failures.append(exc)  # an acceptable, typed shed
        except OutOfMemoryBudgetError as exc:  # pragma: no cover
            pytest.fail(f"unhandled OOM escaped admission control: {exc}")

    threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(not t.is_alive() for t in threads)
    assert len(results) + len(failures) == 8
    assert results, "admission starved every session"
    for rows in results:
        assert rows == expected
    assert governor.counters["admitted"] >= len(results)


def test_queue_full_rejects_with_retryable_error():
    governor = Governor(max_concurrency=1, max_queue=0)
    engine = LevelHeadedEngine(
        graph_catalog(40, 300), governor=governor
    )
    held = governor.admit(cached=True, token=None)
    try:
        with pytest.raises(RetryableAdmissionError) as excinfo:
            engine.query(DEGREE_SQL)
        assert excinfo.value.retry_after_ms > 0
    finally:
        governor.release(held)
    # slot freed: the same query is admitted and runs.
    assert engine.query(DEGREE_SQL).num_rows > 0
    prom = engine.metrics.to_prometheus()
    assert "admission_rejected" in prom
    assert "admission_admitted" in prom


def test_analyzed_explain_runs_the_query_lifecycle():
    engine = LevelHeadedEngine(
        graph_catalog(40, 300), governor=Governor(max_concurrency=1)
    )
    text = engine.explain(DEGREE_SQL, analyze=True)
    assert "result rows:" in text and "q-error:" in text
    # one admission and one flight entry, like any other query
    assert engine.metrics.counter("admission_admitted") == 1
    assert [e["outcome"] for e in engine.flight.snapshot()] == ["ok"]
    assert engine.governor.snapshot()["active"] == 0
    # and the engine's default deadline applies to it
    slow = LevelHeadedEngine(graph_catalog(*SLOW_GRAPH), default_timeout_ms=1e-6)
    with pytest.raises(QueryTimeoutError):
        slow.explain(CYCLE4_SQL, analyze=True)


def test_load_shedding_rejects_non_cached_plans_first():
    catalog = graph_catalog(40, 300)
    engine = LevelHeadedEngine(catalog, governor=Governor(max_concurrency=4))
    engine.query(DEGREE_SQL)  # warm the plan cache
    engine.governor.set_load_shedding(True)
    try:
        # cached plan: cheap, still admitted.
        assert engine.query(DEGREE_SQL).num_rows > 0
        # non-cached plan: shed.
        with pytest.raises(RetryableAdmissionError):
            engine.query("SELECT count(*) AS n FROM edges")
    finally:
        engine.governor.set_load_shedding(False)
    assert engine.governor.counters["rejected_shedding"] >= 1


def test_memory_share_oom_converts_to_retryable():
    # The governor's per-slot share (not the plan's own budget) is the
    # binding constraint, so the kill surfaces as a typed, retryable
    # admission error rather than an unhandled OOM.  The 1 000-byte share
    # is below even the spilled footprint of the ~200 (src, count)
    # groups, so degrading cannot rescue the query.
    engine = LevelHeadedEngine(
        graph_catalog(200, 6_000),
        governor=Governor(max_concurrency=2, global_memory_budget_bytes=2_000),
    )
    with pytest.raises(RetryableAdmissionError) as excinfo:
        engine.query(DEGREE_SQL)
    assert "memory share" in str(excinfo.value)
    # without a governor the same query raises nothing (no budget at all).
    free = LevelHeadedEngine(graph_catalog(200, 6_000))
    assert free.query(DEGREE_SQL).num_rows > 0


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------


def _degradation_budget(catalog) -> int:
    # between the sorted-sparse footprint (8 + 8*(w+a) bytes/group) and
    # the dict footprint (64 + 8*(w+a) bytes/group) for DEGREE_SQL's
    # (src, count) groups: forces a spill that then fits.
    groups = len(set(catalog.table("edges").column("src").tolist()))
    return 48 * groups


def test_degraded_aggregator_matches_dense_results():
    catalog = graph_catalog(400, 12_000)
    dense = LevelHeadedEngine(catalog).query(DEGREE_SQL, collect_stats=True)
    assert dense.stats.aggregator_spills == 0

    budget = _degradation_budget(catalog)
    degraded = LevelHeadedEngine(
        catalog,
        config=EngineConfig(memory_budget_bytes=budget),
    ).query(DEGREE_SQL, collect_stats=True)
    assert degraded.stats.aggregator_spills > 0
    assert degraded.sorted_rows() == dense.sorted_rows()


def test_budget_below_spilled_footprint_raises_oom():
    # a third of the degradation budget: 16 bytes/group is below the
    # sorted-sparse footprint (8 + 8*(w+a) = 24 bytes/group), so the
    # spill happens and still does not fit
    catalog = graph_catalog(400, 12_000)
    engine = LevelHeadedEngine(
        catalog,
        config=EngineConfig(memory_budget_bytes=_degradation_budget(catalog) // 3),
    )
    with pytest.raises(OutOfMemoryBudgetError) as excinfo:
        engine.query(DEGREE_SQL)
    # no deadline, no cancel token, no trace: the kill still carries the
    # lifecycle tree, ending in the execute phase and the kill mark
    root = excinfo.value.trace_root
    assert root is not None and root.name == "query"
    assert [child.name for child in root.children][-2:] == ["execute", "killed"]
    assert root.children[-1].payload["outcome"] == "oom"


def test_memory_pressure_sheds_plan_cache():
    governor = Governor(max_concurrency=2)
    engine = LevelHeadedEngine(graph_catalog(40, 300), governor=governor)
    for sql in (DEGREE_SQL, "SELECT count(*) AS n FROM edges"):
        engine.query(sql)
    assert len(engine.plan_cache) == 2
    governor.note_memory_pressure()
    assert len(engine.plan_cache) < 2
    assert engine.metrics.counter("memory_pressure_events") >= 1
    assert engine.metrics.counter("plan_cache_shed_entries") >= 1


def test_plan_cache_peek_does_not_count_or_touch():
    engine = LevelHeadedEngine(graph_catalog(40, 300))
    engine.query(DEGREE_SQL)
    hits = engine.plan_cache.stats.hits
    key = PlanSource(engine, DEGREE_SQL).key(engine.config)
    assert engine.plan_cache.peek(key, engine.catalog) is True
    assert engine.plan_cache.stats.hits == hits  # peek is not a hit
    assert engine.plan_cache.peek(("nope", (), ()), engine.catalog) is False


# ---------------------------------------------------------------------------
# per-query counters under concurrent queries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads", [2, 4])
def test_cancel_checks_counter_is_parallel_invariant(threads):
    engine = LevelHeadedEngine(graph_catalog(120, 1_500))

    def query():
        return engine.query(TRIANGLE_SQL, collect_stats=True, timeout_ms=600_000)

    serial = query()
    assert serial.stats.cancel_checks > 0
    for parallel in on_threads(query, threads):
        assert serial.single_value() == parallel.single_value()
        assert serial.stats.cancel_checks == parallel.stats.cancel_checks


# ---------------------------------------------------------------------------
# the handle-first LA surface and its deprecation shims
# ---------------------------------------------------------------------------


def test_register_matrix_handles_round_trip():
    engine = LevelHeadedEngine()
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(6, 6))
    m = engine.register_matrix("m", dense, domain="dim")
    assert m.n == 6 and m.nnz == 36
    assert np.allclose(m.to_dense(), dense)

    vec = rng.normal(size=6)
    v = engine.register_vector("x", vec, domain="dim")
    assert np.allclose(v.to_vector(), vec)
    assert np.allclose(v.to_dense(), vec)  # alias

    from repro.la import matvec_sql

    result = engine.query(matvec_sql("m", "x"))
    assert np.allclose(result.to_vector(6), dense @ vec)


def test_register_matrix_coo_form():
    engine = LevelHeadedEngine()
    m = engine.register_matrix(
        "m",
        rows=np.array([0, 1]),
        cols=np.array([1, 2]),
        values=np.array([2.0, 3.0]),
        n=4,
    )
    assert m.nnz == 2
    expected = np.zeros((4, 4))
    expected[[0, 1], [1, 2]] = [2.0, 3.0]
    assert np.allclose(m.to_dense(), expected)


def test_la_free_function_shims_are_gone():
    # the PR-4 free-function LA surface was removed with the
    # strategy-aware API redesign: register through the engine, densify
    # through ResultTable.to_dense / .to_vector
    import repro.la as la

    for name in (
        "register_coo",
        "register_dense",
        "register_vector",
        "result_to_dense",
        "result_to_vector",
    ):
        assert not hasattr(la, name), name


# ---------------------------------------------------------------------------
# QueryHandle slot hygiene (the PR-5 leak fix)
# ---------------------------------------------------------------------------


def test_abandoned_handle_releases_its_governor_slot():
    import gc

    governor = Governor(max_concurrency=1)
    engine = LevelHeadedEngine(
        graph_catalog(*SLOW_GRAPH),
        governor=governor,
    )
    handle = engine.submit(CYCLE4_SQL)
    deadline = time.time() + 10
    while governor.snapshot()["active"] == 0 and time.time() < deadline:
        time.sleep(0.005)  # wait for the slot grant
    assert governor.snapshot()["active"] == 1
    # drop the only reference without result()/cancel()/close(): the
    # finalizer must fire the token and the slot must come back
    del handle
    gc.collect()
    deadline = time.time() + 20
    while governor.snapshot()["active"] and time.time() < deadline:
        time.sleep(0.01)
    assert governor.snapshot()["active"] == 0
    # the freed slot admits the next query normally
    assert engine.query(DEGREE_SQL).num_rows > 0


def test_handle_close_cancels_and_reclaims_slot():
    governor = Governor(max_concurrency=1)
    engine = LevelHeadedEngine(
        graph_catalog(*SLOW_GRAPH),
        governor=governor,
    )
    with engine.submit(CYCLE4_SQL) as handle:
        pass  # __exit__ closes: cancel + wait for the slot
    assert handle.done
    assert isinstance(handle.exception(), QueryCancelledError)
    assert "query handle closed" in str(handle.exception())
    assert governor.snapshot()["active"] == 0
    handle.close()  # idempotent
    assert engine.query(DEGREE_SQL).num_rows > 0


def test_handle_close_after_result_keeps_result_readable():
    engine = LevelHeadedEngine(graph_catalog(40, 300), governor=Governor(max_concurrency=2))
    handle = engine.submit(DEGREE_SQL)
    rows = handle.result(timeout=60).num_rows
    handle.close()
    assert handle.result().num_rows == rows  # still readable after close
    assert engine.governor.snapshot()["active"] == 0
