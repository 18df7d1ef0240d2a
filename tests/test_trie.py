"""Unit and property tests for dictionary encoding and trie construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.trie import AnnotationSpec, Dictionary, build_trie

# ---------------------------------------------------------------------------
# Dictionary
# ---------------------------------------------------------------------------


def test_dictionary_int_roundtrip():
    d = Dictionary.build(np.array([30, 10, 20, 10]))
    codes = d.encode(np.array([10, 20, 30]))
    assert list(codes) == [0, 1, 2]
    assert list(d.decode(codes)) == [10, 20, 30]


def test_dictionary_identity_fast_path():
    d = Dictionary.build(np.arange(100))
    assert d._is_identity
    codes = d.encode(np.array([5, 99]))
    assert list(codes) == [5, 99]
    with pytest.raises(SchemaError):
        d.encode(np.array([100]))


def test_dictionary_strings_order_preserving():
    d = Dictionary.build(np.array(["pear", "apple", "fig"]))
    codes = d.encode(np.array(["apple", "fig", "pear"]))
    assert list(codes) == [0, 1, 2]


def test_dictionary_unknown_value_raises():
    d = Dictionary.build(np.array([1, 2, 3]))
    with pytest.raises(SchemaError):
        d.encode(np.array([4]))


def test_dictionary_try_encode_scalar():
    d = Dictionary.build(np.array(["ASIA", "EUROPE"]))
    assert d.try_encode_scalar("ASIA") == 0
    assert d.try_encode_scalar("MARS") is None


def test_dictionary_encode_bound_range_semantics():
    d = Dictionary.build(np.array([10, 20, 30, 40]))
    # raw predicate 15 <= v < 35  ==  code in [1, 3)
    assert d.encode_bound(15, "lower") == 1
    assert d.encode_bound(35, "upper") == 3
    # inclusive endpoints
    assert d.encode_bound(20, "lower") == 1
    assert d.encode_bound(30, "upper") == 3
    with pytest.raises(ValueError):
        d.encode_bound(1, "middle")


def test_dictionary_extend_recodes():
    d = Dictionary.build(np.array([10, 30]))
    d2 = d.extend(np.array([20]))
    assert list(d2.encode(np.array([10, 20, 30]))) == [0, 1, 2]


def test_dictionary_empty():
    d = Dictionary.build(np.array([], dtype=np.int64))
    assert len(d) == 0
    assert d.try_encode_scalar(5) is None


# ---------------------------------------------------------------------------
# trie construction
# ---------------------------------------------------------------------------


def _matrix_trie():
    # The matrix from Figure 3: (0,0)=0.2 (0,2)=0.4 (1,0)=0.1 (3,1)=0.3
    i = np.array([0, 0, 1, 3], dtype=np.uint32)
    j = np.array([0, 2, 0, 1], dtype=np.uint32)
    v = np.array([0.2, 0.4, 0.1, 0.3])
    return build_trie(
        [i, j], ["i", "j"], [AnnotationSpec("v", v, level=1, combine="sum")]
    )


def _lookup(trie, key):
    """The node id reached along ``key`` (None when absent)."""
    node = int(trie.lookup_nodes_batch([np.array([k]) for k in key])[0])
    return None if node < 0 else node


def test_trie_structure_matches_figure3():
    t = _matrix_trie()
    assert t.arity == 2
    assert t.num_tuples == 4
    assert list(t.level(0).values_for(0)) == [0, 1, 3]
    # children of i=0 are {0, 2}; of i=1 {0}; of i=3 {1}
    assert list(t.level(1).values_for(0)) == [0, 2]
    assert list(t.level(1).values_for(1)) == [0]
    assert list(t.level(1).values_for(2)) == [1]


def test_trie_lookup_node_and_annotation():
    t = _matrix_trie()
    node = _lookup(t, [0, 2])
    assert node is not None
    assert t.annotation("v").values[node] == pytest.approx(0.4)
    assert _lookup(t, [2, 0]) is None
    assert _lookup(t, [0, 1]) is None


def test_trie_tuples_roundtrip():
    t = _matrix_trie()
    tuples = t.tuples()
    expect = np.array([[0, 0], [0, 2], [1, 0], [3, 1]], dtype=np.uint32)
    assert np.array_equal(tuples, expect)


def test_trie_duplicate_keys_presum():
    # duplicate (i=1, j=1) rows collapse; 'sum' combines annotations
    i = np.array([1, 1, 1], dtype=np.uint32)
    j = np.array([1, 1, 2], dtype=np.uint32)
    v = np.array([1.0, 2.0, 5.0])
    t = build_trie([i, j], ["i", "j"], [AnnotationSpec("v", v, 1, "sum")])
    assert t.num_tuples == 2
    node = _lookup(t, [1, 1])
    assert t.annotation("v").values[node] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "combine,expected",
    [("sum", 3.0), ("first", 1.0), ("min", 1.0), ("max", 2.0)],
)
def test_trie_combine_modes(combine, expected):
    i = np.array([7, 7], dtype=np.uint32)
    v = np.array([1.0, 2.0])
    t = build_trie([i], ["i"], [AnnotationSpec("v", v, 0, combine)])
    assert t.annotation("v").values[0] == pytest.approx(expected)


def test_trie_count_combine():
    i = np.array([7, 7, 9], dtype=np.uint32)
    t = build_trie([i], ["i"], [AnnotationSpec("cnt", None, 0, "count")])
    assert list(t.annotation("cnt").values) == [2, 1]


def test_trie_annotation_at_outer_level():
    # annotation functionally determined by the first key only
    ok = np.array([1, 1, 2], dtype=np.uint32)
    sk = np.array([4, 5, 4], dtype=np.uint32)
    date = np.array([100, 100, 200], dtype=np.int64)
    t = build_trie(
        [ok, sk], ["ok", "sk"], [AnnotationSpec("date", date, 0, "first")]
    )
    assert list(t.annotation("date").values) == [100, 200]
    assert t.annotation("date").level == 0


def test_trie_unsorted_input_rows():
    i = np.array([3, 0, 1, 0], dtype=np.uint32)
    j = np.array([1, 2, 0, 0], dtype=np.uint32)
    v = np.array([0.3, 0.4, 0.1, 0.2])
    t = build_trie([i, j], ["i", "j"], [AnnotationSpec("v", v, 1, "sum")])
    assert t.annotation("v").values[_lookup(t, [0, 0])] == pytest.approx(0.2)
    assert t.annotation("v").values[_lookup(t, [3, 1])] == pytest.approx(0.3)


def test_trie_empty_input():
    t = build_trie(
        [np.empty(0, dtype=np.uint32)], ["i"], [AnnotationSpec("v", np.empty(0), 0, "sum")]
    )
    assert t.num_tuples == 0
    assert t.level(0).values_for(0).size == 0


def test_trie_validation_errors():
    i = np.array([1], dtype=np.uint32)
    j = np.array([1, 2], dtype=np.uint32)
    with pytest.raises(SchemaError):
        build_trie([i, j], ["i", "j"])
    with pytest.raises(SchemaError):
        build_trie([], [])
    with pytest.raises(SchemaError):
        build_trie([i], ["i"], [AnnotationSpec("v", np.array([1.0, 2.0]), 0, "sum")])
    with pytest.raises(SchemaError):
        build_trie([i], ["i"], [AnnotationSpec("v", np.array([1.0]), 5, "sum")])
    with pytest.raises(SchemaError):
        AnnotationSpec("v", np.array([1.0]), 0, "median")
    with pytest.raises(SchemaError):
        AnnotationSpec("v", None, 0, "sum")


def test_trie_child_base_consistency():
    t = _matrix_trie()
    level1 = t.level(1)
    # node ids at level 1 are positional: child_base(parent) + rank
    assert level1.child_base(0) == 0
    assert level1.child_base(1) == 2
    assert level1.child_base(2) == 3


# ---------------------------------------------------------------------------
# property-based: trie agrees with a dict-of-dicts model
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
    max_size=120,
)


@settings(max_examples=50, deadline=None)
@given(rows_strategy)
def test_property_trie_matches_model(rows):
    model = {}
    for a, b, v in rows:
        model[(a, b)] = model.get((a, b), 0.0) + v
    if rows:
        i = np.array([r[0] for r in rows], dtype=np.uint32)
        j = np.array([r[1] for r in rows], dtype=np.uint32)
        v = np.array([r[2] for r in rows])
    else:
        i = j = np.empty(0, dtype=np.uint32)
        v = np.empty(0)
    t = build_trie([i, j], ["i", "j"], [AnnotationSpec("v", v, 1, "sum")])
    assert t.num_tuples == len(model)
    ann = t.annotation("v").values
    for (a, b), expect in model.items():
        node = _lookup(t, [a, b])
        assert node is not None
        assert ann[node] == pytest.approx(expect, abs=1e-9)
    # absent tuples stay absent
    assert _lookup(t, [41, 0]) is None


# ---------------------------------------------------------------------------
# property-based: the radix row order builds what a lexsort build did
# ---------------------------------------------------------------------------


def _lexsort_reference(cols, values):
    """Levels and annotations of a build that orders rows by ``np.lexsort``."""
    n_rows = cols[0].size
    order = np.lexsort(tuple(reversed(cols)))
    cols = [c[order] for c in cols]
    values = values[order]
    levels = []
    new_prefix = np.zeros(n_rows, dtype=bool)
    parent_ids = np.zeros(n_rows, dtype=np.int64)
    n_parents = 1
    for col in cols:
        changed = np.ones(n_rows, dtype=bool)
        changed[1:] = col[1:] != col[:-1]
        new_prefix = new_prefix | changed
        starts = np.flatnonzero(new_prefix)
        counts = np.bincount(parent_ids[starts], minlength=n_parents)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        levels.append((col[starts], offsets, starts))
        parent_ids = np.cumsum(new_prefix) - 1
        n_parents = starts.size
    sums = np.add.reduceat(values, levels[-1][2]) if n_rows else values
    firsts = values[levels[0][2]]
    return levels, sums, firsts


trie_rows = st.integers(min_value=1, max_value=3).flatmap(
    lambda arity: st.tuples(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 12)] * arity),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            max_size=80,
        ),
        st.none() | st.lists(
            st.sampled_from([0, 3, 2**31 - 13]), min_size=arity, max_size=arity
        ),
        st.just(arity),
    )
)


@settings(max_examples=80, deadline=None)
@given(trie_rows)
def test_property_trie_build_matches_lexsort_reference(case):
    rows, extra, arity = case
    cols = [
        np.array([key[d] for key, _ in rows], dtype=np.uint32) for d in range(arity)
    ]
    values = np.array([v for _, v in rows], dtype=np.float64)
    # declared domains cover every code (13 values) plus some slack,
    # up to 2**31 per column so the packed key overflows and re-encodes
    domain_sizes = None if extra is None else [13 + e for e in extra]
    t = build_trie(
        cols,
        [f"a{d}" for d in range(arity)],
        [
            AnnotationSpec("s", values, arity - 1, "sum"),
            AnnotationSpec("f", values, 0, "first"),
        ],
        domain_sizes=domain_sizes,
    )
    levels, sums, firsts = _lexsort_reference(cols, values)
    if not rows:
        assert t.num_tuples == 0
        assert t.annotation("s").values.size == t.annotation("f").values.size == 0
        return
    for level, (flat_values, offsets, _starts) in zip(t.levels, levels):
        np.testing.assert_array_equal(level.flat_values, flat_values)
        np.testing.assert_array_equal(level.offsets, offsets)
    np.testing.assert_array_equal(t.annotation("s").values, sums)
    np.testing.assert_array_equal(t.annotation("f").values, firsts)
