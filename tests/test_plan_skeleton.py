"""Plan skeletons: each query shape compiles once, new literals only bind.

A statement's selection constants are lifted into parameters
(``repro.sql.params.lift``); the plan cache keeps one ``PlanSkeleton``
per (shape, parameter types, config), and a miss on the exact text
binds the new literals to it, building only the filtered tries.  These
tests pin one compile per shape, answers equal to the pairwise oracle,
ad-hoc and prepared text sharing a skeleton, type hints and structural
literals keeping skeletons apart, invalidation by catalog writes,
concurrent binds, the drift rebuild, and the prepared/params paths
keeping no per-value state and parsing once.
"""

import itertools
import sys

import numpy as np
import pytest

import repro
from repro import LevelHeadedEngine, PlanCache, Table
from repro.baselines import PairwiseEngine
from repro.core import prepared as prepared_module
from repro.datasets.tpch import generate_tpch
from repro.storage.schema import parse_date
from tests.conftest import make_mini_tpch, on_threads

Q3_SHAPE = """
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = {segment}
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
  AND o_totalprice < {bound}
GROUP BY l_orderkey, o_orderdate, o_shippriority
"""

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")

Q_REVENUE = (
    "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= date '1994-01-01' AND l_quantity < {}"
)


def q3(segment, bound) -> str:
    return Q3_SHAPE.format(segment=f"'{segment}'", bound=bound)


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale_factor=0.002, seed=5)


def _assert_same_rows(got, want):
    got, want = got.sorted_rows(), want.sorted_rows()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b)


def test_q3_compiles_once_across_segments_and_fresh_bounds(tpch):
    engine = LevelHeadedEngine(tpch)
    oracle = PairwiseEngine(tpch)
    bounds = np.random.default_rng(0).uniform(50_000.0, 400_000.0, size=10)
    answered = 0
    for segment, bound in zip(SEGMENTS * 2, bounds):
        sql = q3(segment, round(float(bound), 2))
        got = engine.query(sql, collect_stats=True)
        assert got.stats.plan_cache_misses == 1  # new text on every call
        _assert_same_rows(got, oracle.query(sql))
        answered += got.num_rows > 0
    assert answered > 0
    stats = engine.plan_cache.stats
    assert (stats.skeleton_misses, stats.skeleton_hits) == (1, 9)


def test_prepared_and_adhoc_text_share_a_skeleton(tpch):
    engine = LevelHeadedEngine(tpch)
    adhoc = engine.query(Q_REVENUE.format(24)).single_value()
    stmt = engine.prepare(Q_REVENUE.format("?"))
    assert stmt.execute([24]).single_value() == adhoc
    assert stmt.execute([30]).single_value() == engine.query(Q_REVENUE.format(30)).single_value()
    # a join shape, with named placeholders in both lifted positions
    named = engine.prepare(Q3_SHAPE.format(segment=":segment", bound=":bound"))
    for segment in SEGMENTS[:2]:
        want = engine.query(q3(segment, 250_000.5))
        got = named.execute({"segment": segment, "bound": 250_000.5})
        assert got.sorted_rows() == want.sorted_rows()
    assert engine.plan_cache.stats.skeleton_misses == 2
    assert stmt.recompiles == named.recompiles == 0


def test_literals_of_different_types_never_share_a_skeleton(tpch):
    engine = LevelHeadedEngine(tpch)
    as_date = "SELECT count(*) AS n FROM orders WHERE o_orderdate < date '1995-01-01'"
    as_number = (
        "SELECT count(*) AS n FROM orders "
        f"WHERE o_orderdate < {parse_date('1995-01-01')}"
    )
    assert engine.query(as_date).single_value() == engine.query(as_number).single_value()
    assert engine.plan_cache.stats.skeleton_misses == 2
    # an integer and a float literal are both numbers: one skeleton
    engine.query(Q_REVENUE.format(24))
    engine.query(Q_REVENUE.format(24.5))
    assert engine.plan_cache.stats.skeleton_misses == 3


STRUCTURAL = {
    "case": (
        "SELECT sum(case when l_returnflag = '{}' then l_quantity else 0 end) AS q "
        "FROM lineitem",
        ("R", "A"),
    ),
    "limit": (
        "SELECT o_custkey, sum(o_totalprice) AS t FROM orders "
        "GROUP BY o_custkey ORDER BY t DESC LIMIT {}",
        (3, 5),
    ),
    "in": (
        "SELECT count(*) AS n FROM customer WHERE c_mktsegment IN ('{}')",
        ("BUILDING", "MACHINERY"),
    ),
    "like": (
        "SELECT count(*) AS n FROM part WHERE p_type LIKE '%{}%'",
        ("BRASS", "STEEL"),
    ),
}


@pytest.mark.parametrize("kind", sorted(STRUCTURAL))
def test_structural_literals_get_their_own_skeletons(tpch, kind):
    template, literals = STRUCTURAL[kind]
    engine = LevelHeadedEngine(tpch)
    oracle = PairwiseEngine(tpch)
    for literal in literals:
        sql = template.format(literal)
        _assert_same_rows(engine.query(sql), oracle.query(sql))
    assert engine.plan_cache.stats.skeleton_misses == len(literals)
    assert engine.plan_cache.stats.skeleton_hits == 0


def test_replace_table_invalidates_the_skeleton():
    catalog = make_mini_tpch()
    engine = LevelHeadedEngine(catalog)
    sql = (
        "SELECT c_custkey, sum(o_totalprice) AS t FROM customer, orders "
        "WHERE c_custkey = o_custkey AND o_totalprice > {} GROUP BY c_custkey"
    )
    engine.query(sql.format(100))
    orders = catalog.table("orders")
    columns = {name: np.array(col) for name, col in orders.columns.items()}
    columns["o_totalprice"] = columns["o_totalprice"] * 2
    engine.replace_table(Table.from_columns(orders.schema, **columns))
    got = engine.query(sql.format(150))
    assert engine.plan_cache.stats.skeleton_misses == 2
    assert got.sorted_rows() == PairwiseEngine(catalog).query(sql.format(150)).sorted_rows()


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_binding_one_skeleton_match_a_lone_run(tpch, threads):
    # every bound is above every price: each call is new text with the
    # answer of the lone run
    lone = {s: LevelHeadedEngine(tpch).query(q3(s, 10**9)).sorted_rows() for s in SEGMENTS}
    engine = LevelHeadedEngine(tpch)
    engine.query(q3(SEGMENTS[0], 10**9 - 1))
    nonce = itertools.count(1)

    def run():
        return {s: engine.query(q3(s, 10**9 + next(nonce))).sorted_rows() for s in SEGMENTS}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching often
    try:
        results = on_threads(run, threads)
    finally:
        sys.setswitchinterval(interval)
    for answers in results:
        assert answers == lone
    # a lost update would break the counts: one bind per new text
    stats = engine.plan_cache.stats
    assert stats.skeleton_misses == 1
    assert stats.skeleton_hits == stats.misses - 1 == threads * len(SEGMENTS)


def test_drifted_entry_replaces_its_skeleton():
    engine = LevelHeadedEngine(make_mini_tpch())
    # every run counts as bad: q-error >= 1 > 0.5 drifts after one run
    engine.plan_cache = PlanCache(64, q_error_threshold=0.5, drift_runs=1)
    sql = (
        "SELECT l_orderkey, sum(l_extendedprice) AS revenue, o_orderdate "
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
        "AND o_orderdate < date '{}' GROUP BY l_orderkey, o_orderdate"
    )
    first = engine.query(sql.format("1995-03-15"))
    second = engine.query(sql.format("1995-03-15"), collect_stats=True)
    assert second.stats.plan_reoptimizations == 1
    assert second.sorted_rows() == first.sorted_rows()
    assert engine.plan_cache.stats.skeleton_misses == 2  # rebuilt, not reused
    # a new literal binds the rebuilt skeleton: its estimates are pinned
    plan = engine.explain(sql.format("1996-01-01"), format="json")
    assert plan["plan_cache"]["outcome"] == "miss"
    assert any(node["corrected"] for node in plan["plan_nodes"])
    assert engine.plan_cache.stats.skeleton_misses == 2


def test_prepared_statement_keeps_no_per_value_state():
    engine = LevelHeadedEngine(make_mini_tpch())
    stmt = engine.prepare(Q_REVENUE.format("?"))
    attributes = set(vars(stmt))
    for i in range(1000):
        stmt.execute([i / 100])
    assert set(vars(stmt)) == attributes
    assert all(
        len(value) <= 1
        for value in vars(stmt).values()
        if isinstance(value, (set, dict, list))
    )
    assert stmt.executions == 1000
    assert stmt.recompiles == 0
    assert engine.plan_cache.stats.skeleton_misses == 1
    assert len(engine.plan_cache) == engine.plan_cache.capacity


@pytest.fixture()
def parse_calls(monkeypatch):
    calls = []
    real = prepared_module.parse

    def counting(sql):
        calls.append(sql)
        return real(sql)

    monkeypatch.setattr(prepared_module, "parse", counting)
    return calls


def test_repeated_query_with_params_parses_once(parse_calls):
    engine = LevelHeadedEngine(make_mini_tpch())
    sql = Q_REVENUE.format("?")
    first = engine.query(sql, params=[7]).single_value()
    for _ in range(3):
        assert engine.query(sql, params=[7]).single_value() == first
    engine.explain(sql, params=[7])
    assert len(parse_calls) == 1
    # a prepared statement of the same text hits the same exact entry
    assert engine.prepare(sql).execute([7]).single_value() == first
    assert engine.plan_cache.stats.misses == 1


def test_shard_query_with_params_parses_once(parse_calls):
    surface = repro.connect("shard://local?workers=1", catalog=make_mini_tpch())
    try:
        sql = Q_REVENUE.format("?")
        answers = {surface.query(sql, params=[7]).single_value() for _ in range(3)}
        assert len(answers) == 1
        assert len(parse_calls) == 1
    finally:
        surface.close()
