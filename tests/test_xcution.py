"""Unit tests for execution internals: aggregator and plans."""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine
from repro.errors import OutOfMemoryBudgetError, PlanningError
from repro.xcution import GroupAggregator
from tests.conftest import make_matrix_catalog, make_mini_tpch
from tests.test_engine import MATMUL_SQL, Q5_SQL

# ---------------------------------------------------------------------------
# GroupAggregator
# ---------------------------------------------------------------------------


def test_aggregator_sum_accumulates():
    agg = GroupAggregator(["sum", "count"], group_width=1)
    agg.add_batch([np.array(["a", "b"])], np.array([[1.0, 1.0], [5.0, 1.0]]))
    agg.add_batch([np.array(["a"])], np.array([[2.0, 1.0]]))
    keys, matrix = agg.result_arrays()
    got = {k: tuple(v) for k, v in zip(keys[0], matrix)}
    assert got == {"a": (3.0, 2.0), "b": (5.0, 1.0)}


def test_aggregator_min_max_combine():
    agg = GroupAggregator(["min", "max", "sum"], group_width=0)
    agg.add_batch([], np.array([[5.0, 5.0, 5.0]]))
    agg.add_batch([], np.array([[3.0, 7.0, 1.0]]))
    _keys, matrix = agg.result_arrays()
    assert list(matrix[0]) == [3.0, 7.0, 6.0]


def test_aggregator_consolidates_shared_groups_in_key_order():
    agg = GroupAggregator(["sum"], group_width=2)
    agg.add_batch([np.array([2, 2]), np.array([20, 21])], np.array([[2.0], [3.0]]))
    agg.add_batch([np.array([1, 2]), np.array([10, 20])], np.array([[1.0], [4.0]]))
    assert len(agg) == 4  # a group in two batches counts once per batch...
    agg.consolidate()
    assert len(agg) == 3  # ...until the batches are reduced
    keys, matrix = agg.result_arrays()
    rows = list(zip(keys[0].tolist(), keys[1].tolist(), matrix[:, 0].tolist()))
    assert rows == [(1, 10, 1.0), (2, 20, 6.0), (2, 21, 3.0)]


def test_aggregator_empty_batch_ignored():
    agg = GroupAggregator(["sum"], group_width=1)
    agg.add_batch([np.empty(0, dtype=np.int64)], np.zeros((0, 1)))
    assert len(agg) == 0
    keys, matrix = agg.result_arrays()
    assert matrix.shape == (0, 1)


def test_aggregator_budget_enforced():
    import repro.xcution.aggregator as agg_mod

    agg = GroupAggregator(["sum"], memory_budget_bytes=1000, group_width=1)
    old = agg_mod._BUDGET_CHECK_EVERY
    agg_mod._BUDGET_CHECK_EVERY = 4
    agg._since_check = 0
    try:
        with pytest.raises(OutOfMemoryBudgetError):
            for i in range(1000):
                agg.add_batch([np.array([i])], np.array([[1.0]]))
    finally:
        agg_mod._BUDGET_CHECK_EVERY = old


# ---------------------------------------------------------------------------
# EngineConfig
# ---------------------------------------------------------------------------


def test_engine_config_has_no_thread_knobs(monkeypatch):
    # one scale-up mechanism (shard://local?workers=N): no intra-query
    # thread field, and no environment variable reaches the config
    with pytest.raises(TypeError):
        EngineConfig(parallel=True)
    before = EngineConfig().fingerprint()
    for toggle in ("PARALLEL", "NUM_THREADS"):  # the removed REPRO_* toggles
        monkeypatch.setenv("REPRO_" + toggle, "1")
    assert EngineConfig().fingerprint() == before
    assert len(before) == 8


# ---------------------------------------------------------------------------
# physical plans
# ---------------------------------------------------------------------------


def test_plan_explain_contains_structure(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    text = engine.compile(Q5_SQL).explain()
    assert "mode: join" in text
    assert "relaxed" in text
    assert "GHD" in text


def test_forced_root_order_is_respected(matrix_catalog):
    engine = LevelHeadedEngine(matrix_catalog)
    probe = engine.compile(MATMUL_SQL)
    materialized = list(probe.root.materialized)
    aggregated = [v for v in probe.root.attrs if v not in materialized]
    order = (materialized[0], materialized[1], aggregated[0])
    forced = LevelHeadedEngine(
        matrix_catalog, config=EngineConfig(forced_root_order=order, enable_blas=False)
    )
    plan = forced.compile(MATMUL_SQL)
    assert plan.root.attrs == order
    assert not plan.root.relaxed
    # forced and free plans must agree on results
    assert forced.query(MATMUL_SQL).sorted_rows() == pytest.approx(
        LevelHeadedEngine(matrix_catalog).query(MATMUL_SQL).sorted_rows()
    )


def test_forced_root_order_relaxed_shape(matrix_catalog):
    engine = LevelHeadedEngine(matrix_catalog)
    probe = engine.compile(MATMUL_SQL)
    materialized = list(probe.root.materialized)
    aggregated = [v for v in probe.root.attrs if v not in materialized]
    order = (materialized[0], aggregated[0], materialized[1])
    plan = LevelHeadedEngine(
        matrix_catalog, config=EngineConfig(forced_root_order=order, enable_blas=False)
    ).compile(MATMUL_SQL)
    assert plan.root.relaxed


def test_forced_root_order_validation(matrix_catalog):
    with pytest.raises(PlanningError):
        LevelHeadedEngine(
            matrix_catalog, config=EngineConfig(forced_root_order=("x", "y", "z"))
        ).compile(MATMUL_SQL)


def test_forced_root_order_materialized_first_violation(matrix_catalog):
    engine = LevelHeadedEngine(matrix_catalog)
    probe = engine.compile(MATMUL_SQL)
    materialized = list(probe.root.materialized)
    aggregated = [v for v in probe.root.attrs if v not in materialized]
    bad = (aggregated[0], materialized[0], materialized[1])
    with pytest.raises(PlanningError):
        LevelHeadedEngine(
            matrix_catalog,
            config=EngineConfig(forced_root_order=bad, enable_blas=False),
        ).compile(MATMUL_SQL)


def test_deferred_fetchers_used_for_output_determined_annotations(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = (
        "SELECT c_custkey, c_name, sum(o_totalprice) AS t "
        "FROM customer, orders WHERE c_custkey = o_custkey "
        "GROUP BY c_custkey, c_name"
    )
    plan = engine.compile(sql)
    assert len(plan.root.deferred_fetchers) == 1
    assert not plan.root.group_fetchers
    result = engine.query(sql)
    # values still decode correctly through the deferred path
    names = {int(k): n for k, n, _t in result.to_rows()}
    table = mini_tpch.table("customer")
    for key_value, name in names.items():
        idx = list(table.column("c_custkey")).index(key_value)
        assert table.column("c_name")[idx] == name


def test_walk_fetchers_used_when_keys_aggregated(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    # n_name is determined by nationkey, which is aggregated away
    plan = engine.compile(Q5_SQL)
    assert len(plan.root.group_fetchers) == 1
    assert not plan.root.deferred_fetchers


def test_trie_batch_lookup_finds_every_tuple(mini_tpch):
    table = mini_tpch.table("lineitem")
    trie = table.get_trie(("l_orderkey", "l_suppkey"))
    tuples = trie.tuples()
    nodes = trie.lookup_nodes_batch([tuples[:, 0], tuples[:, 1]])
    # tuples() lists the last level's nodes in id order
    assert nodes.tolist() == list(range(len(tuples)))
    absent = tuples[:, 1].max() + 1
    missing = trie.lookup_nodes_batch([tuples[:1, 0], np.array([absent])])
    assert missing.tolist() == [-1]
