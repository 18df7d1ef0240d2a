"""Tests for hypergraphs, the AGM bound, GHDs, and SQL->AJAR translation."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanningError, UnsupportedQueryError
from repro.query import (
    GHD,
    GHDNode,
    Hyperedge,
    Hypergraph,
    MAX_MIN,
    MAX_PRODUCT,
    MIN_PLUS,
    SUM_PRODUCT,
    agm_bound,
    check_semiring_axioms,
    choose_ghd,
    enumerate_ghds,
    fractional_cover,
    fractional_cover_number,
    single_node_ghd,
    translate,
)
from repro.sql import bind, parse

# ---------------------------------------------------------------------------
# hypergraph
# ---------------------------------------------------------------------------


def _triangle():
    edges = [
        Hyperedge("r", "r", ("a", "b"), 100),
        Hyperedge("s", "s", ("b", "c"), 100),
        Hyperedge("t", "t", ("a", "c"), 100),
    ]
    return Hypergraph(["a", "b", "c"], edges)


def test_hypergraph_edges_with():
    h = _triangle()
    assert {e.alias for e in h.edges_with("a")} == {"r", "t"}


def test_hypergraph_rejects_undeclared_vertex():
    with pytest.raises(ValueError):
        Hypergraph(["a"], [Hyperedge("r", "r", ("a", "b"))])


def test_hypergraph_components():
    h = Hypergraph(
        ["a", "b", "c", "d"],
        [
            Hyperedge("r", "r", ("a", "b")),
            Hyperedge("s", "s", ("b",)),
            Hyperedge("t", "t", ("c", "d")),
        ],
    )
    comps = h.connected_components()
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 2]


def test_hyperedge_vertex_set_is_not_part_of_identity():
    edge = Hyperedge("r", "r", ("a", "b"), 100)
    assert edge.vertex_set is edge.vertex_set == frozenset({"a", "b"})
    fresh = Hyperedge("r", "r", ("a", "b"), 100)
    assert edge == fresh and hash(edge) == hash(fresh)
    copy = pickle.loads(pickle.dumps(edge))
    assert copy == edge and copy.vertex_set == edge.vertex_set


def test_hypergraph_induced():
    h = _triangle()
    sub = h.induced({"a", "b"})
    assert [e.alias for e in sub.edges] == ["r"]


# ---------------------------------------------------------------------------
# AGM / fractional covers
# ---------------------------------------------------------------------------


def test_triangle_fractional_cover_is_1_5():
    h = _triangle()
    assert fractional_cover_number(h.vertices, h.edges) == pytest.approx(1.5)


def test_triangle_agm_bound_is_n_to_1_5():
    h = _triangle()
    assert agm_bound(h) == pytest.approx(100 ** 1.5, rel=1e-6)


def test_path_cover_is_2():
    h = Hypergraph(
        ["a", "b", "c"],
        [Hyperedge("r", "r", ("a", "b"), 10), Hyperedge("s", "s", ("b", "c"), 10)],
    )
    assert fractional_cover_number(h.vertices, h.edges) == pytest.approx(2.0)


def test_agm_respects_cardinality_override():
    h = _triangle()
    bound = agm_bound(h, {"r": 4, "s": 9, "t": 16})
    assert bound == pytest.approx(math.sqrt(4 * 9 * 16), rel=1e-6)


# ---------------------------------------------------------------------------
# GHD structure and enumeration
# ---------------------------------------------------------------------------


def test_single_node_ghd_valid_and_width():
    h = _triangle()
    g = single_node_ghd(h)
    assert g.is_valid()
    assert g.num_nodes == 1
    assert g.depth == 0
    assert g.fhw() == pytest.approx(1.5)


def test_ghd_invalid_when_edge_uncovered():
    h = _triangle()
    root = GHDNode(bag=frozenset({"a", "b"}), edges=[h.edges[0]])
    g = GHD(root=root, hypergraph=h)
    assert not g.is_valid()


def test_ghd_running_intersection_violation_detected():
    h = Hypergraph(
        ["a", "b", "c"],
        [
            Hyperedge("r", "r", ("a", "b")),
            Hyperedge("s", "s", ("b", "c")),
            Hyperedge("t", "t", ("a",)),
        ],
    )
    # a appears in root and grandchild but not the middle node: invalid
    grandchild = GHDNode(bag=frozenset({"a"}), edges=[h.edges[2]])
    child = GHDNode(bag=frozenset({"b", "c"}), edges=[h.edges[1]], children=[grandchild])
    root = GHDNode(bag=frozenset({"a", "b"}), edges=[h.edges[0]], children=[child])
    g = GHD(root=root, hypergraph=h)
    assert not g.is_valid()


def test_enumerate_ghds_path_query_finds_two_node_plan():
    h = Hypergraph(
        ["a", "b", "c"],
        [Hyperedge("r", "r", ("a", "b"), 10), Hyperedge("s", "s", ("b", "c"), 10)],
    )
    ghds = enumerate_ghds(h)
    assert all(g.is_valid() for g in ghds)
    assert any(g.num_nodes == 2 for g in ghds)
    assert any(g.num_nodes == 1 for g in ghds)
    # acyclic: FHW-1 plans exist and get compressed by choose_ghd
    chosen = choose_ghd(h)
    assert chosen.num_nodes == 1
    assert chosen.fhw() == pytest.approx(1.0)


def test_choose_ghd_triangle_single_node():
    h = _triangle()
    chosen = choose_ghd(h)
    assert chosen.num_nodes == 1
    assert chosen.fhw() == pytest.approx(1.5)


def _q5_like_hypergraph():
    """TPC-H Q5's join structure (Figure 4)."""
    return Hypergraph(
        ["orderkey", "custkey", "suppkey", "nationkey", "regionkey"],
        [
            Hyperedge("customer", "customer", ("custkey", "nationkey"), 1_500_000),
            Hyperedge("orders", "orders", ("orderkey", "custkey"), 15_000_000),
            Hyperedge("lineitem", "lineitem", ("orderkey", "suppkey"), 60_000_000),
            Hyperedge("supplier", "supplier", ("suppkey", "nationkey"), 100_000),
            Hyperedge("nation", "nation", ("nationkey", "regionkey"), 25),
            Hyperedge(
                "region", "region", ("regionkey",), 5, has_equality_selection=True
            ),
        ],
    )


def test_q5_two_node_ghd_selected():
    h = _q5_like_hypergraph()
    required_root = {"orderkey", "custkey", "suppkey", "nationkey"}
    chosen = choose_ghd(h, required_root=required_root)
    assert chosen.is_valid()
    assert chosen.num_nodes == 2
    assert chosen.root.bag == frozenset({"orderkey", "custkey", "suppkey", "nationkey"})
    child = chosen.root.children[0]
    assert child.bag == frozenset({"nationkey", "regionkey"})
    # the equality-selected region edge sits in the deeper node
    assert any(e.alias == "region" for e in child.edges)
    assert chosen.fhw() == pytest.approx(2.0)


def test_q5_without_root_requirement_still_valid():
    h = _q5_like_hypergraph()
    chosen = choose_ghd(h)
    assert chosen.is_valid()
    assert chosen.fhw() <= 2.0 + 1e-9


def test_ghd_describe_smoke():
    h = _q5_like_hypergraph()
    text = choose_ghd(h, required_root={"orderkey"}).describe()
    assert "orderkey" in text


#: random hypergraphs as per-edge vertex lists over six vertex names
EDGE_VERTEX_LISTS = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3, unique=True),
    min_size=1,
    max_size=5,
)


def _random_hypergraph_edges(edge_vertex_lists):
    vertices = sorted({v for vs in edge_vertex_lists for v in vs})
    edges = [
        Hyperedge(f"e{i}", f"e{i}", tuple(vs), 10 + i)
        for i, vs in enumerate(edge_vertex_lists)
    ]
    return vertices, edges


@settings(max_examples=30, deadline=None)
@given(EDGE_VERTEX_LISTS)
def test_property_enumerated_ghds_are_valid(edge_vertex_lists):
    """Every enumerated decomposition of a random hypergraph is valid,
    and the chosen one never exceeds the trivial single-node width."""
    h = Hypergraph(*_random_hypergraph_edges(edge_vertex_lists))
    ghds = enumerate_ghds(h)
    assert ghds, "enumeration must always produce at least the fallback"
    for ghd in ghds:
        assert ghd.is_valid()
    chosen = choose_ghd(h)
    assert chosen.is_valid()
    assert chosen.fhw() <= single_node_ghd(h).fhw() + 1e-9


# ---------------------------------------------------------------------------
# bag widths memoized per shape
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(EDGE_VERTEX_LISTS, st.randoms(use_true_random=False))
def test_property_memoized_width_equals_fresh_lp(edge_vertex_lists, rnd):
    """The memoized width equals an uncached solve, whatever the edge
    order and with a duplicated (self-join) edge shape."""
    vertices, edges = _random_hypergraph_edges(edge_vertex_lists)
    fresh, _ = fractional_cover(vertices, edges)
    permuted = edges[:]
    rnd.shuffle(permuted)
    duplicated = permuted + [
        Hyperedge("dup", "dup", tuple(reversed(permuted[0].vertices)))
    ]
    for variant in (edges, permuted, duplicated):
        assert fractional_cover_number(vertices, variant) == pytest.approx(
            fresh, abs=1e-9
        )


def test_width_memo_separates_shapes_over_same_vertices():
    h = _triangle()
    assert fractional_cover_number(h.vertices, h.edges) == pytest.approx(1.5)
    path = [Hyperedge("r", "r", ("a", "b")), Hyperedge("s", "s", ("b", "c"))]
    assert fractional_cover_number(["a", "b", "c"], path) == pytest.approx(2.0)


def test_width_memo_does_not_cache_uncovered_vertex_error():
    edges = [Hyperedge("r", "r", ("a", "b"))]
    for _ in range(2):
        with pytest.raises(PlanningError):
            fractional_cover_number(["a", "b", "z"], edges)


def test_recompiling_a_shape_solves_no_lp(mini_tpch, monkeypatch):
    """A second Q5 compile with a different literal reuses every bag
    width: the LP solver is not called at all."""
    from repro.core.engine import LevelHeadedEngine
    from repro.query import agm

    solves = []

    def counting_linprog(*args, **kwargs):
        solves.append(1)
        return real_linprog(*args, **kwargs)

    real_linprog = agm.linprog
    agm._cover_number_of_shape.cache_clear()
    monkeypatch.setattr(agm, "linprog", counting_linprog)
    engine = LevelHeadedEngine(mini_tpch)

    asia = engine.compile(Q5_SQL)
    first = len(solves)
    europe = engine.compile(Q5_SQL.replace("'ASIA'", "'EUROPE'"))
    assert first > 0
    assert len(solves) == first
    assert europe.ghd.describe() == asia.ghd.describe()


# ---------------------------------------------------------------------------
# semirings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semiring", [SUM_PRODUCT, MIN_PLUS, MAX_PRODUCT, MAX_MIN])
def test_semiring_axioms_on_fixed_samples(semiring):
    assert check_semiring_axioms(semiring, [0.0, 1.0, 2.5, 7.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=4))
def test_semiring_axioms_property(samples):
    for semiring in (SUM_PRODUCT, MIN_PLUS, MAX_PRODUCT, MAX_MIN):
        assert check_semiring_axioms(semiring, samples)


# ---------------------------------------------------------------------------
# SQL -> AJAR translation (Rules 1-4)
# ---------------------------------------------------------------------------

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


def test_translate_q5_rule1_vertices(mini_tpch):
    compiled = translate(bind(parse(Q5_SQL), mini_tpch))
    vertex_names = set(compiled.hypergraph.vertices)
    assert vertex_names == {"custkey", "orderkey", "suppkey", "nationkey", "regionkey"}
    lineitem = compiled.hypergraph.edge_for_alias("lineitem")
    assert lineitem.vertices == ("orderkey", "suppkey")


def test_translate_q5_rule2_aggregation_order(mini_tpch):
    compiled = translate(bind(parse(Q5_SQL), mini_tpch))
    # no key vertex is output: everything is aggregated away
    assert compiled.output_vertices == []
    assert set(compiled.aggregation_order) == set(compiled.hypergraph.vertices)


def test_translate_q5_rule3_annotations(mini_tpch):
    compiled = translate(bind(parse(Q5_SQL), mini_tpch))
    # one sum aggregate with one term: a single lineitem slot
    assert len(compiled.aggregates) == 1
    agg = compiled.aggregates[0]
    assert agg.func == "sum"
    assert len(agg.terms) == 1
    term = agg.terms[0]
    assert set(term.factors) == {"lineitem"}
    slot = next(s for s in compiled.slots if s.id == term.factors["lineitem"])
    assert slot.combine == "sum"
    assert "l_extendedprice" in str(slot.expr)


def test_translate_q5_rule4_metadata(mini_tpch):
    compiled = translate(bind(parse(Q5_SQL), mini_tpch))
    assert len(compiled.group_annotations) == 1
    group = compiled.group_annotations[0]
    assert group.alias == "nation"
    assert "n_name" in str(group.expr)
    # n_name is determined by nationkey alone: only nationkey required at root
    assert "nationkey" in compiled.required_root
    assert "regionkey" not in compiled.required_root


def test_translate_q5_dup_alias_is_lineitem(mini_tpch):
    compiled = translate(bind(parse(Q5_SQL), mini_tpch))
    assert compiled.dup_aliases == {"lineitem"}


def test_translate_matmul(matrix_catalog):
    sql = (
        "SELECT m1.i, m2.j, sum(m1.v * m2.v) FROM matrix m1, matrix m2 "
        "WHERE m1.j = m2.i GROUP BY m1.i, m2.j"
    )
    compiled = translate(bind(parse(sql), matrix_catalog))
    assert len(compiled.hypergraph.vertices) == 3
    assert len(compiled.output_vertices) == 2
    assert len(compiled.aggregation_order) == 1
    agg = compiled.aggregates[0]
    assert len(agg.terms) == 1
    assert set(agg.terms[0].factors) == {"m1", "m2"}
    assert len(compiled.slots) == 2


def test_translate_scan_query(mini_tpch):
    sql = "SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 10"
    compiled = translate(bind(parse(sql), mini_tpch))
    assert compiled.is_scan
    assert compiled.scan_alias == "lineitem"
    assert compiled.hypergraph.vertices == []


def test_translate_avg_rewrites_to_sum_over_count(mini_tpch):
    sql = "SELECT avg(l_quantity) FROM lineitem"
    compiled = translate(bind(parse(sql), mini_tpch))
    funcs = sorted(a.func for a in compiled.aggregates)
    assert funcs == ["count", "sum"]
    name, expr = compiled.output_columns[0]
    assert "/" in str(expr) or "agg" in str(expr)


def test_translate_count_star(mini_tpch):
    sql = "SELECT count(*) FROM lineitem"
    compiled = translate(bind(parse(sql), mini_tpch))
    assert compiled.aggregates[0].func == "count"
    assert compiled.aggregates[0].terms[0].factors == {}


def test_translate_multi_relation_sum_decomposition(mini_tpch):
    # Q9-shaped: l_e*(1-l_d) - s_acctbal*l_quantity spans supplier+lineitem
    sql = """
    SELECT n_name, sum(l_extendedprice * (1 - l_discount) - s_acctbal * l_quantity)
    FROM lineitem, supplier, nation
    WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
    GROUP BY n_name
    """
    compiled = translate(bind(parse(sql), mini_tpch))
    agg = compiled.aggregates[0]
    assert agg.func == "sum"
    assert len(agg.terms) == 2
    first, second = agg.terms
    assert set(first.factors) == {"lineitem"}
    assert set(second.factors) == {"supplier", "lineitem"}
    assert second.coefficient == pytest.approx(-1.0)


def test_translate_min_max_single_relation(mini_tpch):
    sql = "SELECT min(l_quantity), max(l_extendedprice) FROM lineitem"
    compiled = translate(bind(parse(sql), mini_tpch))
    funcs = sorted(a.func for a in compiled.aggregates)
    assert funcs == ["max", "min"]
    assert all(a.slot is not None for a in compiled.aggregates)


def test_translate_minmax_multi_relation_rejected(mini_tpch):
    sql = """
    SELECT min(l_quantity * s_acctbal) FROM lineitem, supplier
    WHERE l_suppkey = s_suppkey
    """
    with pytest.raises(UnsupportedQueryError):
        translate(bind(parse(sql), mini_tpch))


def test_translate_aggregate_over_key_rejected(mini_tpch):
    sql = "SELECT sum(o_orderkey) FROM orders"
    with pytest.raises(UnsupportedQueryError):
        translate(bind(parse(sql), mini_tpch))


def test_translate_plain_select_gets_multiplicity(mini_tpch):
    sql = "SELECT c_custkey, c_name FROM customer, orders WHERE c_custkey = o_custkey"
    compiled = translate(bind(parse(sql), mini_tpch))
    assert compiled.row_multiplicity_aggregate is not None
    assert compiled.output_vertices == ["custkey"]
    assert len(compiled.group_annotations) == 1


def test_translate_underdetermined_group_annotation_rejected(mini_tpch):
    # o_totalprice is not determined by orders' only in-query key (custkey)
    sql = "SELECT c_name, o_totalprice FROM customer, orders WHERE c_custkey = o_custkey"
    with pytest.raises(UnsupportedQueryError):
        translate(bind(parse(sql), mini_tpch))


def test_translate_slot_dedup(mini_tpch):
    sql = (
        "SELECT sum(l_quantity), sum(l_quantity) AS again, sum(2 * l_quantity) FROM lineitem"
    )
    compiled = translate(bind(parse(sql), mini_tpch))
    # sum(l_quantity) appearing twice dedupes to one aggregate and one
    # slot; sum(2*l_quantity) is a distinct single-relation slot
    sums = [a for a in compiled.aggregates if a.func == "sum"]
    assert len(sums) == 2
    assert len(compiled.slots) == 2
    assert len({a.id for a in compiled.aggregates}) == 2


def test_translate_cross_product_rejected(mini_tpch):
    sql = "SELECT sum(c_acctbal * o_totalprice) FROM customer, orders"
    with pytest.raises(UnsupportedQueryError):
        translate(bind(parse(sql), mini_tpch))


def test_translate_division_by_relation_rejected(mini_tpch):
    sql = """
    SELECT sum(l_quantity / s_acctbal) FROM lineitem, supplier
    WHERE l_suppkey = s_suppkey
    """
    with pytest.raises(UnsupportedQueryError):
        translate(bind(parse(sql), mini_tpch))


def test_translate_group_by_computed_expression(mini_tpch):
    sql = """
    SELECT extract(year from o_orderdate) AS o_year, sum(o_totalprice)
    FROM orders GROUP BY extract(year from o_orderdate)
    """
    compiled = translate(bind(parse(sql), mini_tpch))
    assert len(compiled.group_annotations) == 1
    assert compiled.group_annotations[0].alias == "orders"
