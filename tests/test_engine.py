"""End-to-end engine tests: results checked against brute-force joins."""

import numpy as np
import pytest

from repro import EngineConfig, LevelHeadedEngine, Schema, annotation, key
from repro.storage import AttrType, parse_date
from tests.conftest import make_matrix_catalog, make_mini_tpch

# ---------------------------------------------------------------------------
# brute-force reference
# ---------------------------------------------------------------------------


def _rows(table):
    names = table.schema.names
    return [
        {n: table.columns[n][i] for n in names} for i in range(table.num_rows)
    ]


def brute_force_join(catalog, table_aliases, join_conds, row_filter=None):
    """Nested-loop join; join_conds are (alias_a, col_a, alias_b, col_b)."""
    tables = {alias: _rows(catalog.table(name)) for alias, name in table_aliases}
    results = [{}]
    for alias, _name in table_aliases:
        expanded = []
        for partial in results:
            for row in tables[alias]:
                candidate = dict(partial)
                candidate.update({f"{alias}.{k}": v for k, v in row.items()})
                ok = True
                for a, ca, b, cb in join_conds:
                    left, right = f"{a}.{ca}", f"{b}.{cb}"
                    if left in candidate and right in candidate:
                        if candidate[left] != candidate[right]:
                            ok = False
                            break
                if ok:
                    expanded.append(candidate)
        results = expanded
    if row_filter is not None:
        results = [r for r in results if row_filter(r)]
    return results


def group_sum(rows, key_fn, value_fn):
    out = {}
    for row in rows:
        k = key_fn(row)
        out[k] = out.get(k, 0.0) + value_fn(row)
    return out


# ---------------------------------------------------------------------------
# linear algebra queries
# ---------------------------------------------------------------------------

MATMUL_SQL = (
    "SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v FROM matrix m1, matrix m2 "
    "WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
)
MATVEC_SQL = (
    "SELECT m.i, sum(m.v * x.v) AS v FROM matrix m, vector x "
    "WHERE m.j = x.i GROUP BY m.i"
)


def _dense_from(entries, n):
    dense = np.zeros((n, n))
    for i, j, v in entries:
        dense[i, j] = v
    return dense


def test_sparse_matmul_matches_numpy():
    entries = [(0, 0, 2.0), (0, 2, 4.0), (1, 0, 1.0), (3, 1, 3.0), (2, 3, 5.0)]
    catalog = make_matrix_catalog(entries, n=4)
    engine = LevelHeadedEngine(catalog)
    result = engine.query(MATMUL_SQL)
    expected = _dense_from(entries, 4) @ _dense_from(entries, 4)
    got = np.zeros((4, 4))
    for i, j, v in result.to_rows():
        got[int(i), int(j)] = v
    # sparse result: only nonzero (structurally present) entries appear
    assert np.allclose(got, expected)
    assert result.num_rows == int(np.count_nonzero(expected))


def test_sparse_matmul_uses_relaxed_order():
    catalog = make_matrix_catalog()
    engine = LevelHeadedEngine(catalog)
    plan = engine.compile(MATMUL_SQL)
    assert plan.mode == "join"
    assert plan.root.relaxed
    # MKL's loop order: the shared vertex sits between i and j
    assert plan.root.attrs[1] not in plan.root.materialized


def test_sparse_matvec():
    entries = [(0, 0, 2.0), (0, 2, 4.0), (1, 0, 1.0), (3, 1, 3.0)]
    catalog = make_matrix_catalog(entries, n=4)
    vec = Schema("vector", [key("i", domain="dim"), annotation("v")])
    from repro.storage import Table

    catalog.register(
        Table.from_columns(vec, i=[0, 1, 2, 3], v=[1.0, 2.0, 3.0, 4.0])
    )
    engine = LevelHeadedEngine(catalog)
    result = engine.query(MATVEC_SQL)
    expected = _dense_from(entries, 4) @ np.array([1.0, 2.0, 3.0, 4.0])
    for i, v in result.to_rows():
        assert v == pytest.approx(expected[int(i)])


def test_dense_matmul_routes_to_blas():
    n = 6
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    engine = LevelHeadedEngine()
    engine.create_table(
        Schema(
            "matrix",
            [key("i", domain="dim"), key("j", domain="dim"), annotation("v")],
        ),
        i=i.ravel(),
        j=j.ravel(),
        v=dense.ravel(),
    )
    plan = engine.compile(MATMUL_SQL)
    assert plan.mode == "blas"
    result = engine.execute(plan)
    expected = dense @ dense
    got = np.zeros((n, n))
    for a, b, v in result.to_rows():
        got[int(a), int(b)] = v
    assert np.allclose(got, expected)


def test_dense_matmul_without_blas_matches():
    n = 5
    rng = np.random.default_rng(1)
    dense = rng.normal(size=(n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    engine = LevelHeadedEngine(config=EngineConfig(enable_blas=False))
    engine.create_table(
        Schema(
            "matrix",
            [key("i", domain="dim"), key("j", domain="dim"), annotation("v")],
        ),
        i=i.ravel(),
        j=j.ravel(),
        v=dense.ravel(),
    )
    plan = engine.compile(MATMUL_SQL)
    assert plan.mode == "join"
    result = engine.execute(plan)
    got = np.zeros((n, n))
    for a, b, v in result.to_rows():
        got[int(a), int(b)] = v
    assert np.allclose(got, dense @ dense)


# ---------------------------------------------------------------------------
# BI-style joins on the mini TPC-H
# ---------------------------------------------------------------------------


def test_two_table_join_aggregate(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT c_name, sum(o_totalprice) AS total FROM customer, orders "
        "WHERE c_custkey = o_custkey GROUP BY c_name"
    )
    rows = brute_force_join(
        mini_tpch,
        [("customer", "customer"), ("orders", "orders")],
        [("customer", "c_custkey", "orders", "o_custkey")],
    )
    expected = group_sum(
        rows, lambda r: r["customer.c_name"], lambda r: r["orders.o_totalprice"]
    )
    got = dict(result.to_rows())
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == pytest.approx(expected[name])


def test_three_table_join_with_duplicates(mini_tpch):
    """lineitem is keyed (orderkey) here -> duplicate multiplicities matter."""
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT c_name, sum(l_extendedprice * (1 - l_discount)) AS rev "
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "GROUP BY c_name"
    )
    rows = brute_force_join(
        mini_tpch,
        [("customer", "customer"), ("orders", "orders"), ("lineitem", "lineitem")],
        [
            ("customer", "c_custkey", "orders", "o_custkey"),
            ("orders", "o_orderkey", "lineitem", "l_orderkey"),
        ],
    )
    expected = group_sum(
        rows,
        lambda r: r["customer.c_name"],
        lambda r: r["lineitem.l_extendedprice"] * (1 - r["lineitem.l_discount"]),
    )
    got = dict(result.to_rows())
    for name in expected:
        assert got[name] == pytest.approx(expected[name])


Q5_SQL = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= date '1994-01-01'
  AND o_orderdate < date '1995-01-01'
GROUP BY n_name
"""


def _q5_expected(mini_tpch):
    lo, hi = parse_date("1994-01-01"), parse_date("1995-01-01")
    rows = brute_force_join(
        mini_tpch,
        [
            ("customer", "customer"),
            ("orders", "orders"),
            ("lineitem", "lineitem"),
            ("supplier", "supplier"),
            ("nation", "nation"),
            ("region", "region"),
        ],
        [
            ("customer", "c_custkey", "orders", "o_custkey"),
            ("lineitem", "l_orderkey", "orders", "o_orderkey"),
            ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            ("customer", "c_nationkey", "supplier", "s_nationkey"),
            ("supplier", "s_nationkey", "nation", "n_nationkey"),
            ("nation", "n_regionkey", "region", "r_regionkey"),
        ],
        row_filter=lambda r: (
            r["region.r_name"] == "ASIA" and lo <= r["orders.o_orderdate"] < hi
        ),
    )
    return group_sum(
        rows,
        lambda r: r["nation.n_name"],
        lambda r: r["lineitem.l_extendedprice"] * (1 - r["lineitem.l_discount"]),
    )


def test_q5_matches_brute_force(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(Q5_SQL)
    expected = _q5_expected(mini_tpch)
    assert expected, "fixture must produce a non-empty Q5 result"
    got = dict(result.to_rows())
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == pytest.approx(expected[name])


def test_q5_two_node_ghd(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    plan = engine.compile(Q5_SQL)
    assert plan.mode == "join"
    assert len(plan.root.children) == 1


@pytest.mark.parametrize(
    "config",
    [
        EngineConfig(enable_attribute_ordering=False),
        EngineConfig(enable_attribute_elimination=False, enable_blas=False),
        EngineConfig(enable_relaxation=False),
        EngineConfig(force_single_node_ghd=True),
    ],
    ids=["worst-order", "no-elimination", "no-relaxation", "single-node"],
)
def test_q5_ablations_preserve_results(mini_tpch, config):
    engine = LevelHeadedEngine(mini_tpch, config=config)
    result = engine.query(Q5_SQL)
    expected = _q5_expected(mini_tpch)
    got = dict(result.to_rows())
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == pytest.approx(expected[name])


def test_group_by_key_and_annotations(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT l_orderkey, o_orderdate, sum(l_extendedprice) AS s "
        "FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "GROUP BY l_orderkey, o_orderdate"
    )
    rows = brute_force_join(
        mini_tpch,
        [("orders", "orders"), ("lineitem", "lineitem")],
        [("orders", "o_orderkey", "lineitem", "l_orderkey")],
    )
    expected = group_sum(
        rows,
        lambda r: (r["orders.o_orderkey"], r["orders.o_orderdate"]),
        lambda r: r["lineitem.l_extendedprice"],
    )
    got = {(int(k), int(d)): v for k, d, v in result.to_rows()}
    assert got.keys() == expected.keys()
    for k in expected:
        assert got[k] == pytest.approx(expected[k])


def test_count_avg_min_max(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT count(*) AS n, avg(l_quantity) AS aq, min(l_quantity) AS mn, "
        "max(l_quantity) AS mx FROM lineitem"
    )
    quantities = mini_tpch.table("lineitem").column("l_quantity")
    n, aq, mn, mx = result.to_rows()[0]
    assert n == len(quantities)
    assert aq == pytest.approx(float(np.mean(quantities)))
    assert mn == pytest.approx(float(np.min(quantities)))
    assert mx == pytest.approx(float(np.max(quantities)))


def test_count_star_over_join_counts_multiplicities(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT count(*) AS n FROM orders, lineitem WHERE o_orderkey = l_orderkey"
    )
    rows = brute_force_join(
        mini_tpch,
        [("orders", "orders"), ("lineitem", "lineitem")],
        [("orders", "o_orderkey", "lineitem", "l_orderkey")],
    )
    assert result.single_value() == len(rows)


def test_scan_query_group_by_annotation(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT l_suppkey, sum(l_quantity) AS q FROM lineitem GROUP BY l_suppkey"
    )
    table = mini_tpch.table("lineitem")
    expected = {}
    for sk, q in zip(table.column("l_suppkey"), table.column("l_quantity")):
        expected[int(sk)] = expected.get(int(sk), 0.0) + float(q)
    got = {int(k): v for k, v in result.to_rows()}
    assert got == pytest.approx(expected)


def test_scan_with_filter(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT sum(l_extendedprice * l_discount) AS rev FROM lineitem "
        "WHERE l_quantity < 8"
    )
    table = mini_tpch.table("lineitem")
    mask = table.column("l_quantity") < 8
    expected = float(
        np.sum(table.column("l_extendedprice")[mask] * table.column("l_discount")[mask])
    )
    assert result.single_value() == pytest.approx(expected)


def test_empty_result_global_aggregate(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT sum(l_quantity) AS q FROM lineitem WHERE l_quantity > 99999"
    )
    assert result.single_value() == 0.0


def test_empty_result_grouped(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT c_name, sum(o_totalprice) AS t FROM customer, orders "
        "WHERE c_custkey = o_custkey AND o_totalprice > 99999 GROUP BY c_name"
    )
    assert result.num_rows == 0


def test_plain_select_bag_semantics(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT c_custkey, c_name FROM customer, orders WHERE c_custkey = o_custkey"
    )
    rows = brute_force_join(
        mini_tpch,
        [("customer", "customer"), ("orders", "orders")],
        [("customer", "c_custkey", "orders", "o_custkey")],
    )
    expected = sorted(
        (int(r["customer.c_custkey"]), str(r["customer.c_name"])) for r in rows
    )
    got = sorted((int(k), str(n)) for k, n in result.to_rows())
    assert got == expected


def test_computed_group_by_year(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT extract(year from o_orderdate) AS o_year, sum(o_totalprice) AS t "
        "FROM orders GROUP BY extract(year from o_orderdate)"
    )
    table = mini_tpch.table("orders")
    import datetime

    expected = {}
    for d, p in zip(table.column("o_orderdate"), table.column("o_totalprice")):
        year = datetime.date.fromordinal(int(d)).year
        expected[year] = expected.get(year, 0.0) + float(p)
    got = {int(y): t for y, t in result.to_rows()}
    assert got == pytest.approx(expected)


def test_output_expression_over_aggregates(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT sum(l_extendedprice) / count(*) AS mean_price FROM lineitem"
    )
    table = mini_tpch.table("lineitem")
    assert result.single_value() == pytest.approx(
        float(np.mean(table.column("l_extendedprice")))
    )


def test_explain_smoke(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    text = engine.explain(Q5_SQL)
    assert "mode: join" in text
    assert "lineitem" in text


def test_engine_ingestion_roundtrip(tmp_path):
    engine = LevelHeadedEngine()
    schema = Schema("t", [key("k"), annotation("v")])
    path = tmp_path / "t.tbl"
    path.write_text("1|10.0|\n2|20.0|\n")
    engine.load_csv(str(path), schema)
    assert engine.query("SELECT sum(v) AS s FROM t").single_value() == pytest.approx(30.0)


def test_engine_from_dataframe():
    engine = LevelHeadedEngine()
    engine.from_dataframe({"k": np.array([1, 2]), "v": np.array([3.0, 4.0])}, name="df")
    assert engine.query("SELECT sum(v) AS s FROM df").single_value() == pytest.approx(7.0)
