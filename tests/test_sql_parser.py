"""Tests for the SQL lexer, parser, and expression evaluation."""

import numpy as np
import pytest

from repro.errors import ParseError, UnsupportedQueryError
from repro.sql import (
    AggCall,
    Between,
    BinOp,
    CaseExpr,
    ColumnRef,
    Comparison,
    FuncCall,
    InList,
    Like,
    Literal,
    SelectStmt,
    evaluate,
    extract_date_part,
    like_mask,
    parse,
    tokenize,
)
from repro.sql.params import parse_lifted
from repro.storage import parse_date

# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


def test_tokenize_basic():
    tokens = tokenize("SELECT a, b FROM t WHERE a >= 1.5")
    kinds = [t.kind for t in tokens]
    assert kinds == [
        "KEYWORD", "IDENT", "OP", "IDENT", "KEYWORD", "IDENT",
        "KEYWORD", "IDENT", "OP", "NUMBER", "EOF",
    ]


def test_tokenize_string_with_escaped_quote():
    tokens = tokenize("select 'it''s'")
    assert tokens[1].kind == "STRING"
    assert tokens[1].value == "it's"


def test_tokenize_comments_skipped():
    tokens = tokenize("select a -- trailing comment\nfrom t")
    assert [t.value for t in tokens[:4]] == ["select", "a", "from", "t"]


def test_tokenize_unknown_character():
    # lexing is memoized per text; the error must not be, so it raises
    # on every call
    for _ in range(2):
        with pytest.raises(ParseError):
            tokenize("select @")


def test_parse_lifted_returns_a_shared_result():
    # the query path's text memo: an exact repeat is not lexed again,
    # and every caller shares one (immutable) lifted statement
    first = parse_lifted("select a from t where a < 3")
    assert isinstance(tokenize("select a from t"), tuple)
    assert parse_lifted("select a from t where a < 3") is first
    stmt, lifted = first
    assert lifted.sources == (Literal(3, "number"),)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_simple_select():
    stmt = parse("SELECT a, b AS bee FROM t")
    assert isinstance(stmt, SelectStmt)
    assert [i.output_name for i in stmt.items] == ["a", "bee"]
    assert stmt.tables[0].table == "t"
    assert stmt.tables[0].alias == "t"


def test_parse_table_aliases_and_self_join():
    stmt = parse("SELECT m1.i FROM matrix AS m1, matrix m2 WHERE m1.j = m2.i")
    assert [(t.table, t.alias) for t in stmt.tables] == [
        ("matrix", "m1"), ("matrix", "m2"),
    ]
    cond = stmt.where[0]
    assert isinstance(cond, Comparison) and cond.op == "="
    assert cond.left == ColumnRef("m1", "j")
    assert cond.right == ColumnRef("m2", "i")


def test_parse_join_on_folds_into_where():
    stmt = parse("SELECT a.x FROM a JOIN b ON a.x = b.y WHERE b.z > 3")
    assert len(stmt.where) == 2
    assert isinstance(stmt.where[0], Comparison)


def test_parse_where_conjunction_split():
    stmt = parse("SELECT x FROM t WHERE a = 1 AND b = 2 AND c < 3")
    assert len(stmt.where) == 3


def test_parse_group_by():
    stmt = parse("SELECT a, sum(v) FROM t GROUP BY a")
    assert len(stmt.group_by) == 1
    assert stmt.group_by[0] == ColumnRef(None, "a")


def test_parse_aggregates():
    stmt = parse("SELECT sum(a), count(*), avg(b), min(c), max(d) FROM t")
    funcs = [item.expr.func for item in stmt.items]
    assert funcs == ["sum", "count", "avg", "min", "max"]
    assert stmt.items[1].expr.arg is None


def test_parse_arithmetic_precedence():
    stmt = parse("SELECT a + b * c FROM t")
    expr = stmt.items[0].expr
    assert isinstance(expr, BinOp) and expr.op == "+"
    assert isinstance(expr.right, BinOp) and expr.right.op == "*"


def test_parse_parenthesized_expression():
    stmt = parse("SELECT (a + b) * c FROM t")
    expr = stmt.items[0].expr
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_parse_date_literal():
    stmt = parse("SELECT x FROM t WHERE d >= date '1994-01-01'")
    cond = stmt.where[0]
    assert cond.right == Literal(parse_date("1994-01-01"), "date")


def test_parse_interval_literal():
    stmt = parse("SELECT x FROM t WHERE d <= date '1998-12-01' - interval '90' day")
    cond = stmt.where[0]
    assert isinstance(cond.right, BinOp)
    assert cond.right.right == Literal(90, "interval")


def test_parse_between():
    stmt = parse("SELECT x FROM t WHERE d BETWEEN 1 AND 5")
    assert isinstance(stmt.where[0], Between)


def test_parse_in_list():
    stmt = parse("SELECT x FROM t WHERE c IN ('a', 'b')")
    cond = stmt.where[0]
    assert isinstance(cond, InList)
    assert [v.value for v in cond.values] == ["a", "b"]


def test_parse_like_and_not_like():
    stmt = parse("SELECT x FROM t WHERE n LIKE '%green%' AND m NOT LIKE 'a_'")
    like, notlike = stmt.where
    assert isinstance(like, Like) and not like.negated
    assert isinstance(notlike, Like) and notlike.negated


def test_parse_case_when():
    stmt = parse(
        "SELECT sum(CASE WHEN n = 'BRAZIL' THEN v ELSE 0 END) FROM t"
    )
    agg = stmt.items[0].expr
    assert isinstance(agg, AggCall)
    assert isinstance(agg.arg, CaseExpr)
    assert agg.arg.else_ == Literal(0, "number")


def test_parse_extract_year():
    stmt = parse("SELECT extract(year from o_orderdate) AS o_year FROM orders")
    expr = stmt.items[0].expr
    assert expr == FuncCall("extract_year", (ColumnRef(None, "o_orderdate"),))
    assert stmt.items[0].alias == "o_year"


def test_parse_bare_alias_without_as():
    stmt = parse("SELECT sum(v) rev FROM t")
    assert stmt.items[0].alias == "rev"


def test_parse_order_by_and_limit():
    stmt = parse("SELECT a, b FROM t ORDER BY a DESC, b LIMIT 5")
    assert len(stmt.order_by) == 2
    assert stmt.order_by[0].descending
    assert not stmt.order_by[1].descending
    assert stmt.limit == 5


def test_parse_having():
    stmt = parse("SELECT a, sum(v) AS s FROM t GROUP BY a HAVING sum(v) > 10")
    assert stmt.having is not None
    assert "sum(v)" in str(stmt.having)


def test_parse_limit_requires_integer():
    with pytest.raises(ParseError):
        parse("SELECT a FROM t LIMIT 1.5")


def test_parse_rejects_distinct():
    with pytest.raises(UnsupportedQueryError):
        parse("SELECT DISTINCT a FROM t")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse("SELECT a FROM t )")


def test_parse_unary_minus():
    stmt = parse("SELECT -a FROM t")
    assert stmt.items[0].expr.op == "-"


def test_parse_tpch_q5_shape():
    sql = """
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
    stmt = parse(sql)
    assert len(stmt.tables) == 6
    assert len(stmt.where) == 9
    assert len(stmt.group_by) == 1


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


def _resolver(env):
    def resolve(ref):
        return env[str(ref) if ref.qualifier else ref.name]

    return resolve


def test_evaluate_arithmetic_vectorized():
    stmt = parse("SELECT l_e * (1 - l_d) FROM t")
    env = {"l_e": np.array([10.0, 20.0]), "l_d": np.array([0.1, 0.5])}
    out = evaluate(stmt.items[0].expr, _resolver(env))
    assert np.allclose(out, [9.0, 10.0])


def test_evaluate_comparison_and_boolops():
    stmt = parse("SELECT x FROM t WHERE a > 1 AND (b = 2 OR b = 3)")
    env = {"a": np.array([0, 2, 5]), "b": np.array([2, 9, 3])}
    mask = evaluate(stmt.where[0], _resolver(env)) & evaluate(
        stmt.where[1], _resolver(env)
    )
    assert list(mask) == [False, False, True]


def test_evaluate_between_inclusive():
    stmt = parse("SELECT x FROM t WHERE d BETWEEN 2 AND 4")
    env = {"d": np.array([1, 2, 3, 4, 5])}
    assert list(evaluate(stmt.where[0], _resolver(env))) == [
        False, True, True, True, False,
    ]


def test_evaluate_in_list_strings():
    stmt = parse("SELECT x FROM t WHERE c IN ('a', 'c')")
    env = {"c": np.array(["a", "b", "c"])}
    assert list(evaluate(stmt.where[0], _resolver(env))) == [True, False, True]


def test_evaluate_not():
    stmt = parse("SELECT x FROM t WHERE NOT a = 1")
    env = {"a": np.array([1, 2])}
    assert list(evaluate(stmt.where[0], _resolver(env))) == [False, True]


def test_evaluate_case_when_vectorized():
    stmt = parse("SELECT CASE WHEN n = 'BR' THEN v ELSE 0 END FROM t")
    env = {"n": np.array(["BR", "US", "BR"]), "v": np.array([1.0, 2.0, 3.0])}
    out = evaluate(stmt.items[0].expr, _resolver(env))
    assert np.allclose(out, [1.0, 0.0, 3.0])


def test_evaluate_case_scalar():
    stmt = parse("SELECT CASE WHEN 1 = 1 THEN 5 END FROM t")
    assert evaluate(stmt.items[0].expr, _resolver({})) == 5


def test_evaluate_division_is_float():
    stmt = parse("SELECT a / b FROM t")
    env = {"a": np.array([1]), "b": np.array([2])}
    assert np.allclose(evaluate(stmt.items[0].expr, _resolver(env)), [0.5])


def test_extract_date_parts():
    ordinals = np.array([parse_date("1994-03-15"), parse_date("1998-12-01")])
    assert list(extract_date_part(ordinals, "year")) == [1994, 1998]
    assert list(extract_date_part(ordinals, "month")) == [3, 12]
    assert list(extract_date_part(ordinals, "day")) == [15, 1]
    assert extract_date_part(parse_date("2000-02-29"), "day") == 29


def test_like_mask_shapes():
    values = np.array(["forest green", "green", "greenish", "red"])
    assert list(like_mask(values, "%green%")) == [True, True, True, False]
    assert list(like_mask(values, "green%")) == [False, True, True, False]
    assert list(like_mask(values, "%green")) == [True, True, False, False]
    assert list(like_mask(values, "green")) == [False, True, False, False]
    assert list(like_mask(values, "gree_")) == [False, True, False, False]
    assert like_mask("green", "gr%") is True
