"""Tests for execution statistics and the structural optimizer claims.

These tests assert the paper's optimizer effects in terms of *work
counters* rather than wall-clock time, so they are deterministic.
"""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine
from repro.la import matmul_sql, matvec_sql
from repro.xcution import ExecutionStats
from tests.conftest import make_matrix_catalog, make_mini_tpch
from tests.test_engine import Q5_SQL


def _stats_for(engine, sql):
    plan = engine.compile(sql)
    result = engine.execute(plan, collect_stats=True)
    return plan, result, result.stats


def _sparse_setup(n=80, nnz=600, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    flat = np.unique(rows * n + cols)
    rows, cols = flat // n, flat % n
    vals = rng.normal(size=rows.size)
    engine = LevelHeadedEngine()
    engine.register_matrix("m", rows=rows, cols=cols, values=vals, n=n, domain="dim")
    engine.register_vector("x", rng.normal(size=n), domain="dim")
    return engine


def test_stats_merge_and_describe():
    a, b = ExecutionStats(intersections=2), ExecutionStats(intersections=3, fetches=1)
    a.merge(b)
    assert a.intersections == 5 and a.fetches == 1
    assert "intersections=5" in a.describe()
    assert a.as_dict()["fetches"] == 1


def _matrix_shape(engine):
    table = engine.catalog.table("m")
    return len(np.unique(table.column("i"))), table.num_rows


def test_smv_binds_each_row_once():
    # order [i, k]: one frontier row per matrix row, then every entry of
    # that row meets the dense vector in one batched probe
    engine = _sparse_setup()
    _plan, result, stats = _stats_for(engine, matvec_sql("m", "x"))
    rows, nnz = _matrix_shape(engine)
    assert result.num_rows == rows
    assert stats.loop_values == rows
    assert stats.intersections == rows
    assert stats.intersection_output == nnz


def test_smm_relaxed_order_binds_two_levels():
    # relaxed order [i, k, j]: prefixes are bound at i and (i, k) only;
    # j is a single-relation expansion the reduce groups with i
    engine = _sparse_setup()
    plan, result, stats = _stats_for(engine, matmul_sql("m"))
    rows, _nnz = _matrix_shape(engine)
    assert plan.root.relaxed
    assert result.num_rows > 0
    assert stats.intersections == rows
    assert stats.loop_values == rows + stats.intersection_output
    assert stats.groups_emitted == result.num_rows


def test_smm_worst_order_does_far_more_loop_work():
    engine = _sparse_setup(n=300, nnz=4000, seed=6)
    sql = matmul_sql("m")
    good_plan, _r1, good = _stats_for(engine, sql)
    bad_engine = LevelHeadedEngine(
        engine.catalog,
        config=EngineConfig(enable_attribute_ordering=False, enable_relaxation=False),
    )
    bad_plan, _r2, bad = _stats_for(bad_engine, sql)
    # [i, j, k] binds every (i, j) pair before intersecting on k; the
    # relaxed order only ever binds i and the (i, k) entries
    assert good_plan.root.relaxed and not bad_plan.root.relaxed
    assert bad.loop_values > 10 * max(1, good.loop_values)
    assert bad.intersections > 10 * max(1, good.intersections)


def test_q5_stats_counts_nodes_and_fetches(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    _plan, result, stats = _stats_for(engine, Q5_SQL)
    assert result.num_rows > 0
    assert stats.nodes_executed == 2  # root + the region/nation child
    assert stats.fetches > 0  # n_name fetched during the walk
    assert stats.groups_emitted >= result.num_rows


def test_explain_analyze_text(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    text = engine.explain(Q5_SQL, analyze=True)
    assert "stats:" in text
    assert "result rows: 1" in text
    assert "mode: join" in text


def test_deferred_annotations_do_no_fetches(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = (
        "SELECT c_custkey, c_name, sum(o_totalprice) AS t "
        "FROM customer, orders WHERE c_custkey = o_custkey "
        "GROUP BY c_custkey, c_name"
    )
    _plan, result, stats = _stats_for(engine, sql)
    assert result.num_rows > 0
    assert stats.fetches == 0  # c_name decoded columnarly afterwards


def test_matmul_stats(matrix_catalog):
    engine = LevelHeadedEngine(matrix_catalog)
    sql = (
        "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v FROM matrix m1, matrix m2 "
        "WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
    )
    _plan, result, stats = _stats_for(engine, sql)
    assert stats.groups_emitted == result.num_rows
