"""Targeted tests for planner details: BLAS routing conditions,
slot-edge pinning, explain's per-node estimates, result-clause
primitives, and config interactions."""

import json

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine, Schema, annotation, key
from repro.core.engine import EXPLAIN_SCHEMA_VERSION
from repro.datasets.tpch import TPCH_QUERIES, generate_tpch
from repro.la import matmul_sql, matvec_sql
from repro.sql.ast import ColumnRef
from repro.sql.result_clauses import _sort_codes, make_result_resolver, result_row_index
from repro.errors import ExecutionError
from tests.conftest import make_mini_tpch
from tests.test_engine import Q5_SQL

# ---------------------------------------------------------------------------
# BLAS routing conditions (each condition individually breaks the route)
# ---------------------------------------------------------------------------


def _dense_engine(n=6, **config):
    engine = LevelHeadedEngine(
        config=EngineConfig(**config) if config else None
    )
    rng = np.random.default_rng(0)
    engine.register_matrix("m", rng.normal(size=(n, n)), domain="dim")
    engine.register_vector("x", rng.normal(size=n), domain="dim")
    return engine


def test_blas_route_happy_path():
    assert _dense_engine().compile(matmul_sql("m")).mode == "blas"
    assert _dense_engine().compile(matvec_sql("m", "x")).mode == "blas"


def test_blas_route_rejected_with_filter():
    engine = _dense_engine()
    sql = (
        "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v FROM m m1, m m2 "
        "WHERE m1.j = m2.i AND m1.v > 0 GROUP BY m1.i, m2.j"
    )
    plan = engine.compile(sql)
    assert plan.mode == "join"  # the filter breaks full density


def test_blas_route_rejected_with_extra_aggregate():
    engine = _dense_engine()
    sql = (
        "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v, count(*) AS n "
        "FROM m m1, m m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
    )
    assert engine.compile(sql).mode == "join"


def test_blas_route_rejected_on_sparse():
    engine = LevelHeadedEngine()
    engine.register_matrix("m", rows=[0, 1], cols=[1, 0], values=[1.0, 2.0], n=4, domain="dim")
    assert engine.compile(matmul_sql("m")).mode == "join"


def test_blas_route_results_match_join_mode():
    blas_engine = _dense_engine(n=5)
    join_engine = LevelHeadedEngine(
        blas_engine.catalog, config=EngineConfig(enable_blas=False)
    )
    sql = matmul_sql("m")
    assert blas_engine.compile(sql).mode == "blas"
    assert join_engine.compile(sql).mode == "join"
    blas_rows = blas_engine.query(sql).sorted_rows()
    join_rows = join_engine.query(sql).sorted_rows()
    assert len(blas_rows) == len(join_rows)
    for a, b in zip(blas_rows, join_rows):
        assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# slot-edge pinning (Q5's lineitem must execute at the root)
# ---------------------------------------------------------------------------


def test_slot_edges_assigned_to_root(mini_tpch):
    plan = LevelHeadedEngine(mini_tpch).compile(Q5_SQL)
    root_aliases = {b.alias for b in plan.root.bindings}
    assert "lineitem" in root_aliases
    for child in plan.root.children:
        child_aliases = {b.alias for b in child.bindings}
        assert "lineitem" not in child_aliases


def test_every_node_has_bindings(mini_tpch):
    plan = LevelHeadedEngine(mini_tpch).compile(Q5_SQL)

    def walk(node):
        assert node.bindings or node.children
        for child in node.children:
            walk(child)

    walk(plan.root)


# ---------------------------------------------------------------------------
# explain: per-node row estimates, text and versioned JSON
# ---------------------------------------------------------------------------

#: keys of one ``plan_nodes`` entry of ``explain(format="json")``.
PLAN_NODE_KEYS = {
    "depth",
    "node_key",
    "attrs",
    "materialized",
    "relaxed",
    "order_cost",
    "est_rows",
    "corrected",
    "result_slot",
    "bindings",
}


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale_factor=0.005, seed=7)


def test_explain_text_shows_node_estimates(tpch):
    text = LevelHeadedEngine(tpch).explain(TPCH_QUERIES["Q3"])
    node_lines = [line for line in text.splitlines() if "node attrs=" in line]
    assert node_lines and all("est_rows=" in line for line in node_lines)


def test_explain_json_plan_node_schema_golden(tpch):
    """Pins the per-node entries of the versioned explain JSON."""
    doc = LevelHeadedEngine(tpch).explain(TPCH_QUERIES["Q3"], format="json")
    json.dumps(doc)  # everything must be JSON-serializable
    assert doc["schema_version"] == EXPLAIN_SCHEMA_VERSION == 3
    nodes = doc["plan_nodes"]
    assert nodes, "expected at least one plan node"
    for node in nodes:
        assert set(node) == PLAN_NODE_KEYS
        assert isinstance(node["order_cost"], float)
        assert isinstance(node["est_rows"], float) and node["est_rows"] >= 1.0
        assert node["corrected"] is False
        for binding in node["bindings"]:
            assert set(binding) == {"alias", "vertices", "slots"}


def test_blas_mode_explain_has_no_join_nodes():
    rng = np.random.default_rng(2)
    engine = LevelHeadedEngine()
    engine.register_matrix("m", rng.normal(size=(6, 6)), domain="dim")
    doc = engine.explain(matmul_sql("m"), format="json")
    assert doc["mode"] == "blas"
    assert doc["plan_nodes"] == []


# ---------------------------------------------------------------------------
# result-clause primitives
# ---------------------------------------------------------------------------


def test_sort_codes_numeric_and_string():
    nums = np.array([3.0, 1.0, 2.0])
    asc = _sort_codes(nums, descending=False)
    assert list(np.argsort(asc)) == [1, 2, 0]
    desc = _sort_codes(nums, descending=True)
    assert list(np.argsort(desc, kind="stable")) == [0, 2, 1]
    strs = np.array(["pear", "apple"])
    assert list(np.argsort(_sort_codes(strs, False))) == [1, 0]


def test_result_row_index_identity():
    assert result_row_index(lambda r: None, 5, None, [], None) is None


def test_result_row_index_limit_only():
    idx = result_row_index(lambda r: None, 5, None, [], 2)
    assert list(idx) == [0, 1]
    idx0 = result_row_index(lambda r: None, 5, None, [], 0)
    assert list(idx0) == []


def test_result_resolver_priority_and_error():
    env = {"agg0": np.array([1.0])}
    outputs = {"total": np.array([2.0])}
    resolve = make_result_resolver(env, outputs)
    assert resolve(ColumnRef(None, "agg0"))[0] == 1.0
    assert resolve(ColumnRef(None, "total"))[0] == 2.0
    with pytest.raises(ExecutionError):
        resolve(ColumnRef("t", "x"))


# ---------------------------------------------------------------------------
# catalog / config interactions
# ---------------------------------------------------------------------------


def test_domain_version_bumps_on_extension():
    from repro.storage import Catalog, Table

    cat = Catalog()
    cat.register(Table.from_columns(Schema("a", [key("x", domain="d")]), x=[5, 6]))
    v0 = cat.domain_version("d")
    cat.register(Table.from_columns(Schema("b", [key("y", domain="d")]), y=[1]))
    assert cat.domain_version("d") == v0 + 1
    # registering values already covered does not bump
    cat.register(Table.from_columns(Schema("c", [key("z", domain="d")]), z=[5]))
    assert cat.domain_version("d") == v0 + 1


def test_parallel_matches_serial_on_q5(mini_tpch):
    serial = LevelHeadedEngine(mini_tpch).query(Q5_SQL).sorted_rows()
    parallel = LevelHeadedEngine(
        mini_tpch, config=EngineConfig(parallel=True, num_threads=2)
    ).query(Q5_SQL).sorted_rows()
    assert serial == pytest.approx(parallel)


def test_memory_budget_allows_normal_queries(mini_tpch):
    engine = LevelHeadedEngine(
        mini_tpch, config=EngineConfig(memory_budget_bytes=100 * 1024 * 1024)
    )
    assert engine.query(Q5_SQL).num_rows == 1
