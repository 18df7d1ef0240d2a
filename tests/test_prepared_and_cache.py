"""Prepared statements, parameter binding, and the versioned plan cache."""

import math
import warnings

import numpy as np
import pytest

import repro
from repro import (
    BindError,
    EngineConfig,
    LevelHeadedEngine,
    ParseError,
    PlanCache,
    PreparedStatement,
    Schema,
    Table,
    UnsupportedQueryError,
    annotation,
    key,
)

from tests.conftest import make_matrix_catalog, make_mini_tpch


Q_QTY = (
    "SELECT sum(l_extendedprice * l_discount) AS revenue "
    "FROM lineitem WHERE l_quantity < {}"
)

Q_JOIN = (
    "SELECT c_custkey, sum(o_totalprice) AS t "
    "FROM customer, orders WHERE c_custkey = o_custkey "
    "AND o_totalprice > {} GROUP BY c_custkey"
)


# ---------------------------------------------------------------------------
# prepared-statement round trips
# ---------------------------------------------------------------------------


def test_positional_param_matches_inline(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    inline = engine.query(Q_QTY.format("7")).single_value()
    stmt = engine.prepare(Q_QTY.format("?"))
    assert [s.type_hint for s in stmt.param_slots] == ["number"]
    assert stmt.execute([7]).single_value() == pytest.approx(inline)
    # executing through __call__ works too
    assert stmt([7]).single_value() == pytest.approx(inline)


def test_positional_param_in_join_query(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    inline = engine.query(Q_JOIN.format("125")).sorted_rows()
    assert inline  # the fixture makes this selective but non-empty
    stmt = engine.prepare(Q_JOIN.format("?"))
    assert stmt.execute([125]).sorted_rows() == inline
    # a different value produces a different (correct) result
    assert stmt.execute([0]).sorted_rows() == engine.query(Q_JOIN.format("0")).sorted_rows()


def test_named_date_params_match_inline(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    inline = engine.query(
        "SELECT count(*) AS n FROM orders "
        "WHERE o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'"
    ).single_value()
    stmt = engine.prepare(
        "SELECT count(*) AS n FROM orders "
        "WHERE o_orderdate >= :lo AND o_orderdate < :hi"
    )
    assert sorted(s.name for s in stmt.param_slots) == ["hi", "lo"]
    assert all(s.type_hint == "date" for s in stmt.param_slots)
    got = stmt.execute({"lo": "1994-01-01", "hi": "1995-01-01"}).single_value()
    assert got == inline == 5


def test_string_param(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    stmt = engine.prepare(
        "SELECT sum(c_acctbal) AS b FROM customer WHERE c_name = ?"
    )
    assert stmt.param_slots[0].type_hint == "string"
    assert stmt.execute(["c3"]).single_value() == pytest.approx(40.0)
    assert stmt.execute(["c5"]).single_value() == pytest.approx(60.0)


def test_query_with_params_one_shot(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    inline = engine.query(Q_QTY.format("7")).single_value()
    assert engine.query(Q_QTY.format("?"), [7]).single_value() == pytest.approx(inline)
    got = engine.query(
        "SELECT count(*) AS n FROM orders WHERE o_orderdate >= :lo",
        {"lo": "1995-01-01"},
    ).single_value()
    assert got == 3


def test_explain_with_params(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    text = engine.explain(Q_JOIN.format("?"), [125], analyze=True)
    assert "plan cache:" in text
    assert "stats:" in text


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_param_count_and_type_errors(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    stmt = engine.prepare(Q_QTY.format("?"))
    with pytest.raises(BindError):
        stmt.execute()  # missing value
    with pytest.raises(BindError):
        stmt.execute([1, 2])  # too many
    with pytest.raises(BindError):
        stmt.execute(["seven"])  # number slot, string value
    with pytest.raises(BindError):
        stmt.execute({"q": 7})  # positional slot, mapping supplied


def test_named_param_errors(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    stmt = engine.prepare(
        "SELECT count(*) AS n FROM orders WHERE o_orderdate >= :lo"
    )
    with pytest.raises(BindError):
        stmt.execute({"nope": "1994-01-01"})
    with pytest.raises(BindError):
        stmt.execute({"lo": "not-a-date"})


def test_mixing_positional_and_named_rejected(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    with pytest.raises(ParseError):
        engine.prepare(
            "SELECT count(*) AS n FROM orders "
            "WHERE o_totalprice > ? AND o_orderdate >= :lo"
        )


def test_params_outside_where_rejected(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    with pytest.raises(UnsupportedQueryError):
        engine.prepare("SELECT c_custkey, c_acctbal + ? AS b FROM customer")


def test_placeholder_query_without_params_errors(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    with pytest.raises((BindError, UnsupportedQueryError)):
        engine.query(Q_QTY.format("?"))


# ---------------------------------------------------------------------------
# plan cache: hits, misses, normalization, eviction
# ---------------------------------------------------------------------------


def test_plan_cache_hit_miss_counters(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    cold = engine.query(sql, collect_stats=True)
    assert cold.stats.plan_cache_misses == 1
    assert cold.stats.plan_cache_hits == 0
    warm = engine.query(sql, collect_stats=True)
    assert warm.stats.plan_cache_hits == 1
    assert warm.stats.plan_cache_misses == 0
    assert warm.sorted_rows() == cold.sorted_rows()
    assert engine.plan_cache.stats.hits == 1
    assert engine.plan_cache.stats.misses == 1


def test_cache_key_is_whitespace_and_case_insensitive(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    engine.query("SELECT count(*) AS n FROM orders")
    warm = engine.query("select   COUNT(*)  as N\n from ORDERS", collect_stats=True)
    assert warm.stats.plan_cache_hits == 1


def test_cache_keys_on_config_fingerprint(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    engine.query(sql)
    other = engine.query(
        sql, config=EngineConfig(enable_attribute_ordering=False), collect_stats=True
    )
    assert other.stats.plan_cache_misses == 1  # different fingerprint, own entry
    assert len(engine.plan_cache) == 2


def test_cache_keys_on_param_values(mini_tpch):
    # the key holds the values' types, not the values: every value set
    # binds the one skeleton of the statement's shape
    engine = LevelHeadedEngine(mini_tpch)
    stmt = engine.prepare(Q_QTY.format("?"))
    stmt.execute([7])
    stmt.execute([9])
    stmt.execute([7])
    assert engine.plan_cache.stats.misses == 1
    assert engine.plan_cache.stats.hits == 2
    assert len(engine.plan_cache) == 1
    assert stmt.recompiles == 0


def test_prepared_and_adhoc_share_the_cache(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    engine.prepare(sql)  # no placeholders: compiled (and cached) eagerly
    warm = engine.query(sql, collect_stats=True)
    assert warm.stats.plan_cache_hits == 1


def test_lru_eviction():
    cache_engine = LevelHeadedEngine(
        make_matrix_catalog(), plan_cache_capacity=2
    )
    sqls = [
        "SELECT sum(m.v) AS s FROM matrix m",
        "SELECT count(m.v) AS c FROM matrix m",
        "SELECT max(m.v) AS x FROM matrix m",
    ]
    for sql in sqls:
        cache_engine.query(sql)
    assert len(cache_engine.plan_cache) == 2
    assert cache_engine.plan_cache.stats.evictions == 1
    # the evicted (least recently used) first query misses again
    again = cache_engine.query(sqls[0], collect_stats=True)
    assert again.stats.plan_cache_misses == 1


def test_plan_cache_capacity_validation():
    with pytest.raises(ValueError):
        PlanCache(0)


# ---------------------------------------------------------------------------
# invalidation: catalog registrations bump domain versions
# ---------------------------------------------------------------------------


def _extra_supplier_table():
    return Table.from_columns(
        Schema(
            "supplier2",
            [
                key("s_suppkey", domain="suppkey"),
                key("s_nationkey", domain="nationkey"),
                annotation("s_acctbal"),
            ],
        ),
        s_suppkey=[90, 91],  # new suppkey values: extends + re-codes the domain
        s_nationkey=[0, 1],
        s_acctbal=[1.0, 2.0],
    )


def test_register_invalidates_cached_plan(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = (
        "SELECT sum(l_extendedprice) AS s FROM lineitem, supplier "
        "WHERE l_suppkey = s_suppkey"
    )
    before = engine.query(sql).single_value()
    assert engine.query(sql, collect_stats=True).stats.plan_cache_hits == 1
    engine.register_table(_extra_supplier_table())
    after = engine.query(sql, collect_stats=True)
    assert after.stats.plan_cache_invalidations == 1
    assert after.stats.plan_cache_hits == 0
    assert after.single_value() == pytest.approx(before)
    # and the recompiled plan is cached again
    assert engine.query(sql, collect_stats=True).stats.plan_cache_hits == 1


def test_prepared_statement_recompiles_after_invalidation(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    stmt = engine.prepare(
        "SELECT sum(l_extendedprice) AS s FROM lineitem, supplier "
        "WHERE l_suppkey = s_suppkey AND l_quantity < ?"
    )
    before = stmt.execute([9]).single_value()
    stmt.execute([9])
    assert stmt.recompiles == 0  # warm executions never recompile...
    assert stmt.is_current
    engine.register_table(_extra_supplier_table())
    assert not stmt.is_current  # ...until a registration re-codes a domain
    assert stmt.execute([9]).single_value() == pytest.approx(before)
    assert stmt.recompiles == 1
    assert stmt.is_current
    assert engine.plan_cache.stats.invalidations == 1


def test_recompiled_plan_sees_recoded_dictionary():
    catalog = make_matrix_catalog()
    engine = LevelHeadedEngine(catalog)
    sql = "SELECT m.i, sum(m.v) AS s FROM matrix m GROUP BY m.i"
    before = engine.query(sql).sorted_rows()
    # registering negative dim values shifts every existing code up
    engine.create_table(
        Schema("dim_extra", [key("d", domain="dim")]), d=[-5, -1]
    )
    after = engine.query(sql, collect_stats=True)
    assert after.stats.plan_cache_invalidations == 1
    assert after.sorted_rows() == before  # decoded values, not stale codes


# ---------------------------------------------------------------------------
# the redesigned query surface
# ---------------------------------------------------------------------------


def test_connect_constructor(mini_tpch):
    engine = repro.connect(catalog=mini_tpch, config=EngineConfig())
    assert isinstance(engine, LevelHeadedEngine)
    assert isinstance(engine.prepare("SELECT count(*) AS n FROM orders"), PreparedStatement)
    assert engine.query("SELECT count(*) AS n FROM orders").single_value() == 8


def test_stats_attribute_lifecycle(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    plain = engine.query("SELECT count(*) AS n FROM orders")
    assert plain.stats is None
    traced = engine.query("SELECT count(*) AS n FROM orders", collect_stats=True)
    assert traced.stats is not None
    assert traced.stats.plan_cache_hits == 1


def test_explain_json_format(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    doc = engine.explain(sql, analyze=True, format="json")
    assert doc["mode"] == "join"
    assert doc["result_rows"] == engine.query(sql).num_rows
    assert doc["plan_cache"]["outcome"] in ("miss", "hit")
    assert isinstance(doc["stats"], dict)
    assert doc["domain_versions"]  # join plans snapshot their key domains
    plain = engine.explain(sql, format="json")
    assert plain["stats"] is None and plain["result_rows"] is None
    with pytest.raises(ValueError):
        engine.explain(sql, format="yaml")


def test_explain_analyze_shows_cache_outcome(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    assert "plan cache: miss" in engine.explain(sql, analyze=True)
    assert "plan cache: hit" in engine.explain(sql, analyze=True)


def test_deprecated_shims_are_gone(mini_tpch):
    # the PR-1 compatibility shims were removed with the strategy-aware
    # API redesign: the replacements are explain(analyze=True),
    # execute(collect_stats=True), and the config= keyword
    engine = LevelHeadedEngine(mini_tpch)
    sql = Q_JOIN.format("125")
    assert not hasattr(engine, "explain_analyze")
    assert not hasattr(engine, "execute_with_stats")
    # positional config is now a plain params mis-use, not a shim
    with pytest.raises(Exception):
        engine.query(sql, EngineConfig(enable_attribute_ordering=False))


# ---------------------------------------------------------------------------
# decode fixes: zero-row aggregates and empty ORDER BY/LIMIT results
# ---------------------------------------------------------------------------


def test_zero_row_grand_aggregate_identities(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    row = engine.query(
        "SELECT count(*) AS n, sum(l_extendedprice) AS s, "
        "min(l_quantity) AS mn, max(l_quantity) AS mx "
        "FROM lineitem WHERE l_quantity > 1000"
    ).to_rows()[0]
    n, s, mn, mx = row
    assert n == 0 and isinstance(n, int)
    assert s == 0.0
    assert math.isnan(mn) and math.isnan(mx)


def test_zero_row_join_aggregate_identities(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    row = engine.query(
        "SELECT count(*) AS n, sum(l_extendedprice) AS s "
        "FROM lineitem, supplier WHERE l_suppkey = s_suppkey "
        "AND s_acctbal > 99999"
    ).to_rows()[0]
    assert row[0] == 0 and isinstance(row[0], int)
    assert row[1] == 0.0


def test_order_by_limit_on_empty_result(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    result = engine.query(
        "SELECT c_custkey, sum(o_totalprice) AS t "
        "FROM customer, orders WHERE c_custkey = o_custkey "
        "AND o_totalprice > 99999 "
        "GROUP BY c_custkey ORDER BY t DESC LIMIT 5"
    )
    assert result.num_rows == 0
    assert result.to_rows() == []


def test_plan_reexecution_is_deterministic(mini_tpch):
    engine = LevelHeadedEngine(mini_tpch)
    plan = engine.compile(Q_JOIN.format("125"))
    first = engine.execute(plan).sorted_rows()
    for _ in range(3):
        assert engine.execute(plan).sorted_rows() == first


def test_import_is_deprecation_clean():
    # importing the package itself must not trip -W error::DeprecationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import importlib

        import repro as package

        importlib.reload(package)
