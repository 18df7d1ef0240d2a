"""The q-error feedback loop, end to end, plus the counters it reads.

The loop under test (``repro.optimizer.feedback``):

1. every execution pairs each plan node's ``est_rows`` with the rows
   the node actually emitted (``ExecutionStats.node_rows``) and scores
   the q-error ``max(est/act, act/est)``;
2. a cached plan whose q-error exceeds the threshold for K consecutive
   runs drifts; its next lookup recompiles with the observed
   cardinalities overriding the static estimates (``reoptimized``);
3. on the Zipf-skewed workload the corrected recompile genuinely
   re-ranks the plan (different root attribute order) with strictly
   lower measured q-error and identical results.

Also covered here: the counters the loop depends on being truthful --
the governor's one-rejection-one-count rule, the plan cache's
shed-vs-evict split, and the post-filter child cardinality estimate.
"""

import threading

import numpy as np
import pytest

from repro import LevelHeadedEngine
from repro.core.governor import Governor
from repro.core.plan_cache import HIT, MISS, REOPTIMIZED, PlanCache
from repro.core.prepared import PlanSource
from repro.datasets import SKEWED_QUERIES, generate_skewed
from repro.datasets.tpch.queries import Q5
from repro.errors import QueryTimeoutError, RetryableAdmissionError
from repro.optimizer.feedback import (
    DRIFT_CONSECUTIVE_RUNS,
    Q_ERROR_DRIFT_THRESHOLD,
    NodeFeedback,
    PlanFeedback,
    QueryFeedback,
    measure,
    q_error,
)
from tests.conftest import graph_catalog, make_mini_tpch, on_threads

SKEWED_SQL = SKEWED_QUERIES["hot_regions"]

TRIANGLE_SQL = (
    "SELECT count(*) AS triangles FROM edges e1, edges e2, edges e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
)

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


@pytest.fixture(scope="module")
def skewed_catalog():
    return generate_skewed()


def _columns(result):
    return {name: result.column(name).tolist() for name in result.names}


# ---------------------------------------------------------------------------
# q-error arithmetic and the drift record
# ---------------------------------------------------------------------------


def test_q_error_is_symmetric_and_floored():
    assert q_error(10, 100) == pytest.approx(10.0)
    assert q_error(100, 10) == pytest.approx(10.0)
    assert q_error(5, 5) == 1.0
    # both sides floor at one row: 0-vs-0 is a perfect prediction
    assert q_error(0, 0) == 1.0
    assert q_error(0.2, 1) == 1.0


def test_measure_pairs_estimates_with_actuals(skewed_catalog):
    engine = LevelHeadedEngine(skewed_catalog)
    result = engine.query(SKEWED_SQL, collect_stats=True)
    source = PlanSource(engine, SKEWED_SQL)
    skeleton, _ = engine.plan_cache.lookup(source.key(engine.config), engine.catalog)
    measured = measure(skeleton.bind(source.lifted()[1]), result.stats.node_rows)
    assert isinstance(measured, QueryFeedback)
    keys = {nf.node_key for nf in measured.nodes}
    assert keys == set(result.stats.node_rows)
    assert measured.q_error_max == max(nf.q_error for nf in measured.nodes)
    root = measured.node("n0")
    assert isinstance(root, NodeFeedback)
    assert measured.q_error_root == root.q_error


def test_plan_feedback_drifts_after_consecutive_bad_runs():
    fb = PlanFeedback(threshold=4.0, drift_runs=3)
    bad = QueryFeedback(
        nodes=(NodeFeedback("n0", 10.0, 100, 10.0),), q_error_max=10.0,
        q_error_root=10.0,
    )
    good = QueryFeedback(
        nodes=(NodeFeedback("n0", 90.0, 100, 1.1),), q_error_max=1.1,
        q_error_root=1.1,
    )
    assert fb.record(bad) is False
    assert fb.record(good) is False  # streak resets: one bad run is noise
    assert fb.record(bad) is False
    assert fb.record(bad) is False
    assert fb.record(bad) is True  # third consecutive: newly drifted
    assert fb.drifted
    assert fb.record(bad) is False  # sticky, not re-reported
    # observations carry to the successor; drift state does not
    succ = fb.successor()
    assert succ.corrections() == {"n0": 100}
    assert not succ.drifted and succ.bad_streak == 0
    assert succ.reoptimized == 1


# ---------------------------------------------------------------------------
# the loop on the skewed workload (default thresholds)
# ---------------------------------------------------------------------------


def test_skew_breaks_the_static_estimate(skewed_catalog):
    engine = LevelHeadedEngine(skewed_catalog)
    result = engine.query(SKEWED_SQL, collect_stats=True)
    assert result.stats.q_error_max > Q_ERROR_DRIFT_THRESHOLD


def test_drift_reoptimizes_and_lowers_q_error(skewed_catalog):
    engine = LevelHeadedEngine(skewed_catalog)
    runs = [
        engine.query(SKEWED_SQL, collect_stats=True)
        for _ in range(DRIFT_CONSECUTIVE_RUNS + 2)
    ]
    # run pattern: miss, hit, hit (3 bad runs => drift), reoptimized, hit
    assert runs[0].stats.plan_cache_misses == 1
    reopt = runs[DRIFT_CONSECUTIVE_RUNS]
    assert reopt.stats.plan_reoptimizations == 1
    assert runs[-1].stats.plan_cache_hits == 1
    assert engine.plan_cache.stats.reoptimizations == 1
    # the corrected plan measures strictly lower q-error
    before = runs[0].stats.q_error_max
    after = reopt.stats.q_error_max
    assert after < before
    assert runs[-1].stats.q_error_max == after
    # and identical results, run over run
    want = _columns(runs[0])
    for run in runs[1:]:
        assert _columns(run) == want
    # the whole loop is visible in /metrics
    prom = engine.metrics.to_prometheus()
    assert "repro_plans_drifted_total 1" in prom
    assert "repro_plan_reoptimizations_total 1" in prom
    assert "repro_plan_cache_reoptimized_total 1" in prom
    assert 'repro_q_error_max{quantile="0.5"}' in prom
    assert 'repro_q_error_max{quantile="0.95"}' in prom


def test_corrections_rerank_the_attribute_order(skewed_catalog):
    """The observed child cardinality changes the chosen root order."""
    from repro.query.translate import translate
    from repro.sql.binder import bind
    from repro.sql.parser import parse
    from repro.xcution.plan import build_plan

    engine = LevelHeadedEngine(skewed_catalog)
    observed = engine.query(SKEWED_SQL, collect_stats=True).stats.node_rows
    compiled = translate(bind(parse(SKEWED_SQL), skewed_catalog))
    base = build_plan(compiled, engine.config)
    corrected = build_plan(compiled, engine.config, feedback=observed)
    base_orders = [tuple(n["attrs"]) for n in base.node_summaries()]
    corr_orders = [tuple(n["attrs"]) for n in corrected.node_summaries()]
    assert base_orders != corr_orders
    # the corrected node advertises itself
    assert corrected.node_summaries()[0]["corrected"] is True
    assert base.node_summaries()[0]["corrected"] is False


def test_explain_analyze_reports_per_node_q_error(skewed_catalog):
    engine = LevelHeadedEngine(skewed_catalog)
    text = engine.explain(SKEWED_SQL, analyze=True)
    assert "q-error: max=" in text
    assert "est_rows=" in text and "actual_rows=" in text
    doc = engine.explain(SKEWED_SQL, analyze=True, format="json")
    assert doc["feedback"]["q_error_max"] > Q_ERROR_DRIFT_THRESHOLD
    by_key = {n["node_key"]: n for n in doc["plan_nodes"]}
    for nf in doc["feedback"]["nodes"]:
        node = by_key[nf["node_key"]]
        assert node["actual_rows"] == nf["actual_rows"]
        assert node["q_error"] == nf["q_error"]
    assert doc["stats"]["q_error_max"] == doc["feedback"]["q_error_max"]


def test_failed_rebuild_keeps_the_entry_drifted(skewed_catalog):
    """A corrected rebuild that dies (a deadline firing in a trie build)
    must not leave the uncorrected skeleton answering as if re-optimized:
    the entry stays drifted and the next call rebuilds."""
    engine = LevelHeadedEngine(skewed_catalog)
    runs = [
        engine.query(SKEWED_SQL, collect_stats=True)
        for _ in range(DRIFT_CONSECUTIVE_RUNS)
    ]
    real = engine._compile_skeleton
    calls = []

    def dying(*args, **kwargs):
        calls.append(args)
        raise QueryTimeoutError("deadline fired while building a trie")

    engine._compile_skeleton = dying
    with pytest.raises(QueryTimeoutError):
        engine.query(SKEWED_SQL)
    assert len(calls) == 1
    engine._compile_skeleton = real
    fifth = engine.query(SKEWED_SQL, collect_stats=True)
    assert fifth.stats.plan_reoptimizations == 1
    assert fifth.stats.q_error_max < runs[0].stats.q_error_max
    assert _columns(fifth) == _columns(runs[0])
    assert "[feedback-corrected]" in engine.explain(SKEWED_SQL)
    (entry,) = engine.plan_cache.feedback_snapshot()
    assert entry["reoptimized"] == 1 and not entry["drifted"]


def test_reoptimized_explain_marks_corrected_nodes(skewed_catalog):
    engine = LevelHeadedEngine(skewed_catalog)
    for _ in range(DRIFT_CONSECUTIVE_RUNS + 1):
        engine.query(SKEWED_SQL)
    assert "[feedback-corrected]" in engine.explain(SKEWED_SQL)


def test_feedback_meta_command(skewed_catalog):
    from repro.cli import _handle_line

    engine = LevelHeadedEngine(skewed_catalog)
    empty = _handle_line(engine, "\\feedback")
    assert "no cached plans" in empty
    for _ in range(DRIFT_CONSECUTIVE_RUNS + 1):
        engine.query(SKEWED_SQL)
    text = _handle_line(engine, "\\feedback")
    assert "threshold=4" in text and "drift_runs=3" in text
    assert "reoptimizations=1" in text
    assert "reoptimized=1" in text  # the live entry is the successor


def test_server_hello_advertises_feedback_policy(skewed_catalog):
    from repro.client import connect
    from repro.server import ReproServer

    engine = LevelHeadedEngine(skewed_catalog)
    server = ReproServer(engine, port=0)
    server.start()
    try:
        with connect("127.0.0.1", server.port) as client:
            assert client.feedback == {
                "q_error_threshold": Q_ERROR_DRIFT_THRESHOLD,
                "drift_runs": DRIFT_CONSECUTIVE_RUNS,
            }
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# forced drift: re-optimized plans stay correct on standard workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sql_name", ["Q3", "Q5", "triangle"])
def test_reoptimized_plan_results_identical(sql_name):
    if sql_name == "triangle":
        catalog, sql = graph_catalog(60, 400, seed=3), TRIANGLE_SQL
    else:
        catalog = make_mini_tpch()
        sql = {"Q3": Q3_MINI, "Q5": Q5}[sql_name]
    engine = LevelHeadedEngine(catalog)
    # every run counts as bad: q-error >= 1 > 0.5 drifts after one run
    engine.plan_cache = PlanCache(64, q_error_threshold=0.5, drift_runs=1)
    first = engine.query(sql, collect_stats=True)
    assert first.stats.plan_cache_misses == 1
    second = engine.query(sql, collect_stats=True)
    assert second.stats.plan_reoptimizations == 1
    assert engine.plan_cache.stats.reoptimizations == 1
    assert _columns(second) == _columns(first)


def test_drifted_entry_not_cached_for_admission(skewed_catalog):
    """peek() treats a drifted entry as non-cached: it will recompile."""
    engine = LevelHeadedEngine(skewed_catalog)
    engine.plan_cache = PlanCache(64, q_error_threshold=0.5, drift_runs=1)
    key = PlanSource(engine, SKEWED_SQL).key(engine.config)
    engine.query(SKEWED_SQL)
    assert engine.plan_cache.peek(key, engine.catalog) is False
    plan, outcome = engine.plan_cache.lookup(key, engine.catalog)
    assert plan is None and outcome == REOPTIMIZED


# ---------------------------------------------------------------------------
# differential: concurrent queries do not change the q-error counters
# ---------------------------------------------------------------------------


def _on_fresh_engines(catalog, sql, threads):
    """``threads`` concurrent first runs, each on its own engine (so no
    run's feedback re-plans another's) over the shared catalog."""
    return on_threads(
        lambda: LevelHeadedEngine(catalog).query(sql, collect_stats=True), threads
    )


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_q_error_counters_parallel_invariant(skewed_catalog, threads):
    serial = LevelHeadedEngine(skewed_catalog).query(SKEWED_SQL, collect_stats=True)
    for parallel in _on_fresh_engines(skewed_catalog, SKEWED_SQL, threads):
        assert parallel.stats.node_rows == serial.stats.node_rows
        assert parallel.stats.q_error_max == serial.stats.q_error_max
        assert parallel.stats.q_error_root == serial.stats.q_error_root
        assert _columns(parallel) == _columns(serial)


@pytest.mark.parametrize("threads", [2, 4])
def test_q5_node_rows_parallel_invariant(threads):
    catalog = make_mini_tpch()
    serial = LevelHeadedEngine(catalog).query(Q5, collect_stats=True)
    for parallel in _on_fresh_engines(catalog, Q5, threads):
        assert parallel.stats.node_rows == serial.stats.node_rows
        assert parallel.stats.q_error_max == serial.stats.q_error_max


# ---------------------------------------------------------------------------
# satellite: the governor counts each rejection exactly once
# ---------------------------------------------------------------------------


def test_queue_full_rejection_counted_once():
    governor = Governor(max_concurrency=1, max_queue=0)
    held = governor.admit(cached=True)
    try:
        # a non-cached query at a full queue used to book BOTH
        # rejected_queue_full and rejected_shedding for one rejection
        with pytest.raises(RetryableAdmissionError) as excinfo:
            governor.admit(cached=False)
    finally:
        governor.release(held)
    assert excinfo.value.cause == "queue_full"
    assert governor.counters["rejected_queue_full"] == 1
    assert governor.counters["rejected_shedding"] == 0
    assert governor.counters["queue_full_uncached"] == 1
    rejected = sum(
        count for name, count in governor.counters.items()
        if name.startswith("rejected_")
    )
    assert rejected == 1


def test_cached_queue_full_rejection_not_marked_uncached():
    governor = Governor(max_concurrency=1, max_queue=0)
    held = governor.admit(cached=True)
    try:
        with pytest.raises(RetryableAdmissionError):
            governor.admit(cached=True)
    finally:
        governor.release(held)
    assert governor.counters["rejected_queue_full"] == 1
    assert governor.counters["queue_full_uncached"] == 0


def test_shedding_rejection_carries_cause(skewed_catalog):
    engine = LevelHeadedEngine(
        skewed_catalog, governor=Governor(max_concurrency=4)
    )
    engine.governor.set_load_shedding(True)
    try:
        with pytest.raises(RetryableAdmissionError) as excinfo:
            engine.query(SKEWED_SQL)
    finally:
        engine.governor.set_load_shedding(False)
    assert excinfo.value.cause == "shedding"
    assert engine.governor.counters["rejected_shedding"] == 1
    assert engine.governor.counters["rejected_queue_full"] == 0
    prom = engine.metrics.to_prometheus()
    assert "repro_admission_rejected_total 1" in prom
    assert "repro_admission_rejected_shedding_total 1" in prom


# ---------------------------------------------------------------------------
# satellite: shed entries are shed, not evicted
# ---------------------------------------------------------------------------


def _store_n(cache, n):
    class _Plan:
        def is_current(self, catalog):
            return True

    for i in range(n):
        cache.store((f"q{i}", (), ()), _Plan())


def test_shed_lru_books_shed_not_evictions():
    cache = PlanCache(capacity=8)
    _store_n(cache, 6)
    dropped = cache.shed_lru(fraction=0.5)
    assert dropped == 3
    assert cache.stats.shed == 3
    assert cache.stats.evictions == 0


def test_capacity_eviction_books_evictions_not_shed():
    cache = PlanCache(capacity=4)
    _store_n(cache, 6)
    assert cache.stats.evictions == 2
    assert cache.stats.shed == 0
    assert cache.stats.as_dict()["shed"] == 0


def test_memory_pressure_metric_still_counts_shed_entries(skewed_catalog):
    governor = Governor(max_concurrency=2)
    engine = LevelHeadedEngine(skewed_catalog, governor=governor)
    engine.query(SKEWED_SQL)
    engine.query("SELECT count(*) AS n FROM fact")
    governor.note_memory_pressure()
    assert engine.metrics.counter("plan_cache_shed_entries") >= 1
    assert engine.plan_cache.stats.shed >= 1
    assert engine.plan_cache.stats.evictions == 0


# ---------------------------------------------------------------------------
# satellite: child cardinality estimates are post-filter
# ---------------------------------------------------------------------------


def test_child_estimate_uses_post_filter_rows(skewed_catalog):
    """The supp/region child is bounded by the *filtered* region rows."""
    from repro.query.translate import translate
    from repro.sql.binder import bind
    from repro.sql.parser import parse
    from repro.xcution.plan import build_plan

    config = LevelHeadedEngine(skewed_catalog).config
    compiled = translate(bind(parse(SKEWED_SQL), skewed_catalog))

    def root(feedback=None):
        summary = build_plan(compiled, config, feedback=feedback).node_summaries()[0]
        return summary["attrs"], summary["order_cost"], summary["est_rows"]

    # the static root plans exactly as if the child had been observed at
    # the post-filter region rows (2 hot regions) -- not at the raw
    # 40-row region table or the 400-row supp table
    assert root() == root({"n0.0": 2})
    assert root() != root({"n0.0": 40})
    assert root() != root({"n0.0": 400})


def test_selective_filter_flips_the_root_decision(skewed_catalog):
    """Dropping the selective predicate changes the root's plan.

    With ``r_hot = 1`` the child collapses to 2 estimated rows and the
    root sees a cheap selective fragment; without it the child estimate
    is the 40-row region table and the root's order cost and output
    estimate both rise.  Raw (pre-filter) estimates would make both
    queries plan identically.
    """
    engine = LevelHeadedEngine(skewed_catalog)
    filtered = engine.explain(SKEWED_SQL, format="json")["plan_nodes"][0]
    unfiltered_sql = SKEWED_SQL.replace("AND r_hot = 1", "")
    unfiltered = engine.explain(unfiltered_sql, format="json")["plan_nodes"][0]
    assert filtered["est_rows"] < unfiltered["est_rows"]
    assert filtered["order_cost"] < unfiltered["order_cost"]
