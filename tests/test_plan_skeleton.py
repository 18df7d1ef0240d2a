"""Plan skeletons: each query shape compiles once, every call binds.

A statement's selection constants are lifted into parameters
(``repro.sql.params.lift``); the plan cache keeps one ``PlanSkeleton``
per (shape, parameter types, config), and every call -- an exact repeat
or new literals -- hits it and binds its values.  Each parameterized
relation memoizes its filtered trie on the values its own predicates
read, so a bind builds only the tries whose values changed.  These
tests pin one compile per shape, answers equal to the pairwise oracle,
ad-hoc and prepared text sharing a skeleton, type hints and structural
literals keeping skeletons apart, invalidation by catalog writes,
concurrent binds, the drift rebuild, the binding memo's builds and
bound, and the prepared/params paths keeping no per-value state and
parsing once.
"""

import itertools
import sys

import numpy as np
import pytest

import repro
from repro import LevelHeadedEngine, PlanCache, Table
from repro.baselines import PairwiseEngine
from repro.core.prepared import PlanSource
from repro.datasets.tpch import generate_tpch
from repro.sql import params as params_module
from repro.storage.schema import parse_date
from repro.xcution import plan as plan_module
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
    for i, (segment, bound) in enumerate(zip(SEGMENTS * 2, bounds)):
        sql = q3(segment, round(float(bound), 2))
        got = engine.query(sql, collect_stats=True)
        # new text on every call: only the first compiles
        assert got.stats.plan_cache_misses == (i == 0)
        _assert_same_rows(got, oracle.query(sql))
        answered += got.num_rows > 0
    assert answered > 0
    stats = engine.plan_cache.stats
    # a fresh literal is a hit; a drifted skeleton's corrected rebuild
    # is the only other compile
    assert stats.misses == 1
    assert stats.hits + stats.reoptimizations == 9


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
    assert engine.plan_cache.stats.misses == 2
    # drift is scored per skeleton: the ad-hoc runs count toward the
    # shared entry, and its corrected rebuild is the only recompile
    assert stmt.recompiles == 0
    assert named.recompiles == engine.plan_cache.stats.reoptimizations


def test_literals_of_different_types_never_share_a_skeleton(tpch):
    engine = LevelHeadedEngine(tpch)
    as_date = "SELECT count(*) AS n FROM orders WHERE o_orderdate < date '1995-01-01'"
    as_number = (
        "SELECT count(*) AS n FROM orders "
        f"WHERE o_orderdate < {parse_date('1995-01-01')}"
    )
    assert engine.query(as_date).single_value() == engine.query(as_number).single_value()
    assert engine.plan_cache.stats.misses == 2
    # an integer and a float literal are both numbers: one skeleton
    engine.query(Q_REVENUE.format(24))
    engine.query(Q_REVENUE.format(24.5))
    assert engine.plan_cache.stats.misses == 3


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
    assert engine.plan_cache.stats.misses == len(literals)
    assert engine.plan_cache.stats.hits == 0


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
    stats = engine.plan_cache.stats
    assert (stats.misses, stats.invalidations, stats.hits) == (1, 1, 0)
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
    # a lost update would break the counts: one lookup per call, and
    # only the first compiles (drift may ask for corrected rebuilds)
    stats = engine.plan_cache.stats
    assert stats.misses == 1
    assert stats.hits + stats.reoptimizations == threads * len(SEGMENTS)


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
    # the rebuild replaced the entry; its own run drifted it again (the
    # threshold is below 1), so the next lookup rebuilds once more
    doc = engine.explain(sql.format("1996-01-01"), format="json")
    assert doc["plan_cache"]["outcome"] == "reoptimized"
    # an unexecuted rebuild has not drifted: a new literal binds it,
    # and its estimates are pinned
    doc = engine.explain(sql.format("1997-01-01"), format="json")
    assert doc["plan_cache"]["outcome"] == "hit"
    assert any(node["corrected"] for node in doc["plan_nodes"])
    stats = engine.plan_cache.stats
    assert (stats.misses, stats.reoptimizations, stats.hits) == (1, 2, 1)
    assert len(engine.plan_cache) == 1


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
    assert engine.plan_cache.stats.misses == 1
    assert len(engine.plan_cache) == 1  # one entry per shape, not per value


@pytest.fixture()
def parse_calls(monkeypatch):
    calls = []
    real = params_module.parse

    def counting(sql):
        calls.append(sql)
        return real(sql)

    monkeypatch.setattr(params_module, "parse", counting)
    params_module.parse_lifted.cache_clear()  # texts earlier tests parsed
    yield calls
    params_module.parse_lifted.cache_clear()  # entries parsed by the spy


def test_repeated_query_with_params_parses_once(parse_calls):
    engine = LevelHeadedEngine(make_mini_tpch())
    sql = Q_REVENUE.format("?")
    first = engine.query(sql, params=[7]).single_value()
    for _ in range(3):
        assert engine.query(sql, params=[7]).single_value() == first
    engine.explain(sql, params=[7])
    assert len(parse_calls) == 1
    # a prepared statement of the same text hits the same entry
    assert engine.prepare(sql).execute([7]).single_value() == first
    assert len(parse_calls) == 1
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


# ---------------------------------------------------------------------------
# the per-relation binding memo
# ---------------------------------------------------------------------------


def _no_drift_engine(catalog) -> LevelHeadedEngine:
    """An engine whose cache never asks for a corrected rebuild: a
    rebuild starts new memos, and these tests count the memos' builds
    (the drift rebuild has its own tests)."""
    engine = LevelHeadedEngine(catalog)
    engine.plan_cache = PlanCache(64, q_error_threshold=float("inf"))
    return engine


@pytest.fixture()
def filtered_builds(monkeypatch):
    """Table name of every filtered trie build (``get_trie`` with a mask)."""
    builds = []
    real = Table.get_trie

    def counting(self, key_order, annotations=(), row_mask=None):
        if row_mask is not None:
            builds.append(self.schema.name)
        return real(self, key_order, annotations, row_mask)

    monkeypatch.setattr(Table, "get_trie", counting)
    return builds


def _memos(engine, sql):
    skeleton, _ = engine.plan_cache.lookup(
        PlanSource(engine, sql).key(engine.config), engine.catalog
    )
    return {
        recipe.alias: recipe.memo
        for node in skeleton.nodes.values()
        for recipe in node.bindings.values()
    }, skeleton


def test_fresh_literal_rebuilds_only_its_own_relation(tpch, filtered_builds):
    engine = _no_drift_engine(tpch)
    calls = 0
    for repeat in range(2):
        for segment in SEGMENTS:
            calls += 1
            engine.query(q3(segment, 10**9 + calls))  # a fresh bound every call
    assert filtered_builds.count("customer") <= len(SEGMENTS)
    assert filtered_builds.count("lineitem") == 1
    assert filtered_builds.count("orders") == calls
    assert engine.plan_cache.stats.misses == 1


def test_exact_repeat_builds_nothing_and_evaluates_no_predicate(
    tpch, filtered_builds, monkeypatch
):
    engine = _no_drift_engine(tpch)
    sql = q3(SEGMENTS[1], 250_000.5)
    want = engine.query(sql).sorted_rows()
    built = len(filtered_builds)
    evaluated = []
    real = plan_module.evaluate

    def counting(*args, **kwargs):
        evaluated.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module, "evaluate", counting)
    got = engine.query(sql, collect_stats=True)
    assert got.stats.plan_cache_hits == 1
    assert got.sorted_rows() == want
    assert len(filtered_builds) == built
    assert evaluated == []


def test_memoized_binds_match_the_oracle_on_seeded_literals(tpch):
    engine = LevelHeadedEngine(tpch)
    oracle = PairwiseEngine(tpch)
    rng = np.random.default_rng(2018)
    # a few bounds recur, so later sets mix memo hits and fresh builds
    bounds = (120_000.0, 250_000.5, 10**9)
    for _ in range(20):
        sql = q3(
            SEGMENTS[rng.integers(len(SEGMENTS))], bounds[rng.integers(len(bounds))]
        )
        _assert_same_rows(engine.query(sql), oracle.query(sql))


def test_replace_table_drops_the_memo():
    catalog = make_mini_tpch()
    engine = _no_drift_engine(catalog)
    sql = (
        "SELECT c_custkey, sum(o_totalprice) AS t FROM customer, orders "
        "WHERE c_custkey = o_custkey AND o_totalprice > 150 GROUP BY c_custkey"
    )
    engine.query(sql)
    memos, _ = _memos(engine, sql)
    assert len(memos["orders"]) == 1
    orders = catalog.table("orders")
    columns = {name: np.array(col) for name, col in orders.columns.items()}
    columns["o_totalprice"] = columns["o_totalprice"] * 2
    engine.replace_table(Table.from_columns(orders.schema, **columns))
    got = engine.query(sql, collect_stats=True)
    assert got.stats.plan_cache_invalidations == 1
    assert got.sorted_rows() == PairwiseEngine(catalog).query(sql).sorted_rows()
    fresh, _ = _memos(engine, sql)
    assert fresh["orders"] is not memos["orders"]


def test_threads_sharing_memoized_bindings_match_a_lone_run(tpch):
    threads, rounds = 4, 3
    texts = {s: q3(s, 250_000.5) for s in SEGMENTS}
    lone = {s: LevelHeadedEngine(tpch).query(t).sorted_rows() for s, t in texts.items()}
    engine = _no_drift_engine(tpch)

    def run():
        return [
            {s: engine.query(t).sorted_rows() for s, t in texts.items()}
            for _ in range(rounds)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching often
    try:
        results = on_threads(run, threads)
    finally:
        sys.setswitchinterval(interval)
    for answers in itertools.chain.from_iterable(results):
        assert answers == lone
    # every call looked the one skeleton up once; every memo stayed
    # within its bound however the threads interleaved
    stats = engine.plan_cache.stats
    assert stats.hits + stats.misses == threads * rounds * len(SEGMENTS)
    memos, skeleton = _memos(engine, texts[SEGMENTS[0]])
    assert len(memos["customer"]) == len(SEGMENTS)
    assert len(memos["orders"]) == len(memos["lineitem"]) == 1


def test_memo_stays_bounded_under_fresh_nonces(tpch):
    engine = _no_drift_engine(tpch)
    for nonce in range(100):
        engine.query(q3(SEGMENTS[nonce % len(SEGMENTS)], 10**9 + nonce))
    memos, skeleton = _memos(engine, q3(SEGMENTS[0], 10**9))
    assert len(memos["orders"]) == plan_module.BIND_MEMO_SIZE
    assert len(memos["customer"]) == len(SEGMENTS)
    assert len(memos["lineitem"]) == 1
    assert len(skeleton.estimates) <= plan_module.BIND_MEMO_SIZE
