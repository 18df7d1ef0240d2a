"""Tests for schemas, tables, trie caching, the catalog, and CSV loading."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage import (
    AnnotationRequest,
    AttrType,
    Catalog,
    Schema,
    Table,
    annotation,
    cardinality_score,
    collect_stats,
    format_date,
    key,
    load_dataframe,
    load_table,
    parse_date,
    write_table,
)

# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_schema_key_and_annotation_partition():
    s = Schema("m", [key("i"), key("j"), annotation("v")])
    assert s.key_names == ("i", "j")
    assert s.annotation_names == ("v",)
    assert s.attribute("v").kind.value == "annotation"


def test_schema_rejects_non_integer_keys():
    with pytest.raises(SchemaError):
        key("bad", type=AttrType.STRING)


def test_schema_rejects_duplicate_attributes():
    with pytest.raises(SchemaError):
        Schema("m", [key("i"), annotation("i")])


def test_schema_unknown_attribute_raises():
    s = Schema("m", [key("i")])
    with pytest.raises(SchemaError):
        s.attribute("zzz")


def test_key_domain_defaults_to_name():
    assert key("c_custkey").domain_name == "c_custkey"
    assert key("c_custkey", domain="custkey").domain_name == "custkey"


def test_date_roundtrip():
    ordinal = parse_date("1994-01-01")
    assert format_date(ordinal) == "1994-01-01"
    assert parse_date("1994-01-02") == ordinal + 1


# ---------------------------------------------------------------------------
# table basics
# ---------------------------------------------------------------------------


def _matrix_table():
    schema = Schema("m", [key("i"), key("j"), annotation("v")])
    return Table.from_columns(
        schema, i=[0, 0, 1, 3], j=[0, 2, 0, 1], v=[0.2, 0.4, 0.1, 0.3]
    )


def test_table_from_columns_and_column_access():
    t = _matrix_table()
    assert t.num_rows == 4
    assert t.column("v").dtype == np.float64
    with pytest.raises(SchemaError):
        t.column("nope")


def test_table_missing_column_raises():
    schema = Schema("m", [key("i"), annotation("v")])
    with pytest.raises(SchemaError):
        Table.from_columns(schema, i=[1, 2])


def test_table_ragged_columns_raise():
    schema = Schema("m", [key("i"), annotation("v")])
    with pytest.raises(SchemaError):
        Table(schema, {"i": np.array([1, 2]), "v": np.array([1.0])})


def test_table_distinct_and_uniqueness():
    t = _matrix_table()
    assert t.distinct_count(("i",)) == 3
    assert t.distinct_count(("i", "j")) == 4
    assert t.keys_are_unique(("i", "j"))
    assert not t.keys_are_unique(("i",))


def test_cardinality_score_matches_paper_example():
    # TPC-H SF10-ish: lineitem 100, orders 26, customer 3 (Example 5.3)
    assert cardinality_score(59_986_052, 59_986_052) == 100
    assert cardinality_score(15_000_000, 59_986_052) == 26
    assert cardinality_score(1_500_000, 59_986_052) == 3
    assert cardinality_score(25, 59_986_052) == 1


def test_collect_stats():
    t = _matrix_table()
    stats = collect_stats(t, [("i",)])
    assert stats.num_rows == 4
    assert stats.key_distinct[("i",)] == 3


# ---------------------------------------------------------------------------
# tries from tables
# ---------------------------------------------------------------------------


def test_get_trie_basic_and_cache():
    t = _matrix_table()
    trie1 = t.get_trie(("i", "j"), [AnnotationRequest("v", "v", 1, "sum")])
    trie2 = t.get_trie(("i", "j"), [AnnotationRequest("v", "v", 1, "sum")])
    assert trie1 is trie2  # cached
    assert trie1.num_tuples == 4
    (node,) = trie1.lookup_nodes_batch(
        [np.array([trie_code(t, "i", 0)]), np.array([trie_code(t, "j", 2)])]
    )
    assert trie1.annotation("v").values[node] == pytest.approx(0.4)


def trie_code(table, attr, raw_value):
    """Encode one raw key value the way get_trie does."""
    d = table._domain_dictionary(attr)
    code = d.try_encode_scalar(raw_value)
    assert code is not None
    return code


def test_get_trie_key_order_matters():
    t = _matrix_table()
    t_ij = t.get_trie(("i", "j"))
    t_ji = t.get_trie(("j", "i"))
    assert t_ij is not t_ji
    assert t_ij.key_attrs == ("i", "j")
    assert t_ji.key_attrs == ("j", "i")
    # same tuples, transposed
    assert t_ij.num_tuples == t_ji.num_tuples == 4


def test_get_trie_row_mask_not_cached():
    t = _matrix_table()
    mask = t.column("v") > 0.15
    filtered = t.get_trie(("i", "j"), row_mask=mask)
    assert filtered.num_tuples == 3
    again = t.get_trie(("i", "j"), row_mask=mask)
    assert filtered is not again


def test_get_trie_rejects_annotation_as_key():
    t = _matrix_table()
    with pytest.raises(SchemaError):
        t.get_trie(("v",))


def test_get_trie_string_annotation_dictionary():
    schema = Schema("n", [key("nk"), annotation("name", AttrType.STRING)])
    t = Table.from_columns(schema, nk=[0, 1, 2], name=["BRAZIL", "ASIA", "CANADA"])
    trie = t.get_trie(("nk",), [AnnotationRequest("name", "name", 0, "first")])
    ann = trie.annotation("name")
    assert ann.dictionary is not None
    decoded = ann.decode(np.arange(3))
    assert list(decoded) == ["BRAZIL", "ASIA", "CANADA"]


def test_get_trie_precomputed_expression_values():
    t = _matrix_table()
    expr_values = t.column("v") * 2.0
    trie = t.get_trie(
        ("i", "j"),
        [AnnotationRequest("v2", "v*2", 1, "sum", values=expr_values)],
    )
    (node,) = trie.lookup_nodes_batch(
        [np.array([trie_code(t, "i", 1)]), np.array([trie_code(t, "j", 0)])]
    )
    assert trie.annotation("v2").values[node] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# catalog and shared domains
# ---------------------------------------------------------------------------


def test_catalog_shares_domains_across_tables():
    cat = Catalog()
    customer = Table.from_columns(
        Schema("customer", [key("c_custkey", domain="custkey"), annotation("c_acctbal")]),
        c_custkey=[10, 20, 30],
        c_acctbal=[1.0, 2.0, 3.0],
    )
    orders = Table.from_columns(
        Schema("orders", [key("o_custkey", domain="custkey"), annotation("o_total")]),
        o_custkey=[20, 20, 40],
        o_total=[5.0, 6.0, 7.0],
    )
    cat.register(customer)
    cat.register(orders)
    d = cat.domain_dictionary("custkey")
    assert list(d.values) == [10, 20, 30, 40]
    # both tables encode through the shared dictionary
    ct = customer.get_trie(("c_custkey",))
    ot = orders.get_trie(("o_custkey",))
    assert list(ct.level(0).values_for(0)) == [0, 1, 2]
    assert list(ot.level(0).values_for(0)) == [1, 3]


def test_catalog_register_extends_and_invalidates():
    cat = Catalog()
    a = Table.from_columns(
        Schema("a", [key("x", domain="shared")]), x=[1, 2]
    )
    cat.register(a)
    trie_before = a.get_trie(("x",))
    b = Table.from_columns(
        Schema("b", [key("y", domain="shared")]), y=[0]
    )
    cat.register(b)  # extends 'shared' with 0, re-coding 1 and 2
    trie_after = a.get_trie(("x",))
    assert trie_before is not trie_after
    assert list(trie_after.level(0).values_for(0)) == [1, 2]  # codes shifted by 0


def test_catalog_duplicate_registration_rejected():
    cat = Catalog()
    a = Table.from_columns(Schema("a", [key("x")]), x=[1])
    cat.register(a)
    with pytest.raises(SchemaError):
        cat.register(Table.from_columns(Schema("a", [key("x")]), x=[2]))


def test_catalog_lookup():
    cat = Catalog()
    a = Table.from_columns(Schema("a", [key("x")]), x=[1])
    cat.register(a)
    assert cat.table("a") is a
    assert "a" in cat
    assert cat.has_table("a")
    with pytest.raises(SchemaError):
        cat.table("zzz")


# ---------------------------------------------------------------------------
# CSV loader
# ---------------------------------------------------------------------------


def test_load_table_roundtrip(tmp_path):
    schema = Schema(
        "orders",
        [
            key("o_orderkey"),
            annotation("o_orderdate", AttrType.DATE),
            annotation("o_comment", AttrType.STRING),
            annotation("o_total", AttrType.DOUBLE),
        ],
    )
    path = tmp_path / "orders.tbl"
    path.write_text(
        "1|1994-01-01|fast order|100.5|\n"
        "2|1995-06-30|slow order|200.25|\n"
    )
    t = load_table(str(path), schema)
    assert t.num_rows == 2
    assert t.column("o_orderdate")[0] == parse_date("1994-01-01")
    assert t.column("o_comment")[1] == "slow order"
    out = tmp_path / "out.tbl"
    write_table(t, str(out))
    t2 = load_table(str(out), schema)
    assert np.array_equal(t2.column("o_orderdate"), t.column("o_orderdate"))
    assert np.allclose(t2.column("o_total"), t.column("o_total"))


def test_load_table_field_count_mismatch(tmp_path):
    schema = Schema("t", [key("a"), annotation("b")])
    path = tmp_path / "bad.tbl"
    path.write_text("1|2|3|\n")
    with pytest.raises(SchemaError):
        load_table(str(path), schema)


def test_load_table_missing_file():
    schema = Schema("t", [key("a")])
    with pytest.raises(SchemaError):
        load_table("/nonexistent/file.tbl", schema)


def test_load_table_bad_value(tmp_path):
    schema = Schema("t", [key("a")])
    path = tmp_path / "bad.tbl"
    path.write_text("notanint|\n")
    with pytest.raises(SchemaError):
        load_table(str(path), schema)


def test_load_dataframe_infers_schema():
    frame = {"i": np.array([1, 2]), "v": np.array([0.5, 1.5]), "s": np.array(["a", "b"])}
    t = load_dataframe(frame, name="df")
    assert t.schema.key_names == ("i",)
    assert set(t.schema.annotation_names) == {"v", "s"}


def test_load_dataframe_with_explicit_schema():
    schema = Schema("df", [key("i"), annotation("v")])
    t = load_dataframe({"i": [1], "v": [2.0]}, schema=schema)
    assert t.num_rows == 1
