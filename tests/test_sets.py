"""Unit and property tests for the set layouts and intersection kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets import (
    BitSet,
    Layout,
    UintSet,
    choose_layout,
    difference,
    from_unsorted,
    intersect,
    intersect_many,
    make_set,
    popcount64,
    union,
    union_many,
)

# ---------------------------------------------------------------------------
# layout selection
# ---------------------------------------------------------------------------


def test_choose_layout_small_sets_stay_uint():
    assert choose_layout(3, 0, 2) is Layout.UINT


def test_choose_layout_dense_range_is_bitset():
    assert choose_layout(100, 0, 99) is Layout.BITSET


def test_choose_layout_sparse_range_is_uint():
    assert choose_layout(100, 0, 1_000_000) is Layout.UINT


def test_make_set_respects_force_layout():
    values = np.array([5, 900000], dtype=np.uint32)
    assert make_set(values, force_layout=Layout.BITSET).layout is Layout.BITSET
    dense = np.arange(100, dtype=np.uint32)
    assert make_set(dense, force_layout=Layout.UINT).layout is Layout.UINT


# ---------------------------------------------------------------------------
# UintSet
# ---------------------------------------------------------------------------


def test_uintset_basic_protocol():
    s = UintSet(np.array([1, 5, 9], dtype=np.uint32))
    assert len(s) == 3
    assert s.cardinality == 3
    assert list(s) == [1, 5, 9]
    assert s.min_value == 1 and s.max_value == 9
    assert s.contains(5) and not s.contains(4)


def test_uintset_from_unsorted_dedupes_and_sorts():
    s = UintSet.from_unsorted(np.array([9, 1, 5, 1, 9]))
    assert np.array_equal(s.to_array(), np.array([1, 5, 9], dtype=np.uint32))


def test_uintset_empty():
    s = UintSet.empty()
    assert len(s) == 0 and not s
    with pytest.raises(ValueError):
        _ = s.min_value


def test_uintset_rank_and_rank_many():
    s = UintSet(np.array([2, 4, 8, 16], dtype=np.uint32))
    assert s.rank(2) == 0
    assert s.rank(16) == 3
    assert np.array_equal(s.rank_many(np.array([4, 8])), np.array([1, 2]))
    with pytest.raises(KeyError):
        s.rank(3)


def test_uintset_contains_many():
    s = UintSet(np.array([2, 4, 8], dtype=np.uint32))
    mask = s.contains_many(np.array([1, 2, 4, 9, 8]))
    assert list(mask) == [False, True, True, False, True]


def test_uintset_select():
    s = UintSet(np.array([2, 4, 8], dtype=np.uint32))
    picked = s.select(np.array([True, False, True]))
    assert list(picked.to_array()) == [2, 8]


# ---------------------------------------------------------------------------
# BitSet
# ---------------------------------------------------------------------------


def test_popcount64_known_values():
    words = np.array([0, 1, 0xFF, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert list(popcount64(words)) == [0, 1, 8, 64]


def test_bitset_roundtrip():
    values = np.array([0, 1, 63, 64, 200], dtype=np.uint32)
    bs = BitSet.from_values(values)
    assert bs.cardinality == 5
    assert np.array_equal(bs.to_array(), values)


def test_bitset_base_is_aligned_and_offset():
    values = np.array([130, 140, 190], dtype=np.uint32)
    bs = BitSet.from_values(values)
    assert bs.base == 128
    assert np.array_equal(bs.to_array(), values)


def test_bitset_contains():
    bs = BitSet.from_values(np.array([10, 70, 200], dtype=np.uint32))
    assert bs.contains(70)
    assert not bs.contains(71)
    assert not bs.contains(5)  # below base
    assert not bs.contains(100000)  # above range


def test_bitset_contains_many():
    bs = BitSet.from_values(np.array([10, 70, 200], dtype=np.uint32))
    mask = bs.contains_many(np.array([9, 10, 70, 199, 200, 5000]))
    assert list(mask) == [False, True, True, False, True, False]


def test_bitset_rank_present_unaligned_base():
    bs = BitSet.from_values(np.array([130, 140, 190, 200], dtype=np.uint32))
    assert bs.base == 128
    probe = np.array([5, 127, 128, 130, 140, 141, 190, 200, 255, 256, 1 << 40])
    assert bs.rank_present(probe).tolist() == [-1, -1, -1, 0, 1, -1, 2, 3, -1, -1, -1]
    # read 50 wide, the members are cells (2, 30), (2, 40), (3, 40) and
    # (4, 0); (3, 50) would alias (4, 0), and (2, 90) lies past its row
    rows, cols = np.array([2, 2, 3, 3, 4, 2]), np.array([30, 40, 40, 50, 0, 90])
    assert bs.rank_present(cols, rows, 50).tolist() == [0, 1, 2, -1, 3, -1]
    assert BitSet.empty().rank_present(probe).tolist() == [-1] * probe.size


def test_bitset_rank():
    values = np.array([3, 64, 65, 300], dtype=np.uint32)
    bs = BitSet.from_values(values)
    for i, v in enumerate(values):
        assert bs.rank(int(v)) == i
    assert np.array_equal(bs.rank_present(values), np.arange(4))
    with pytest.raises(KeyError):
        bs.rank(4)


def test_bitset_full_range():
    bs = BitSet.full_range(5, 133)
    assert bs.cardinality == 128
    assert np.array_equal(bs.to_array(), np.arange(5, 133, dtype=np.uint32))


def test_bitset_full_range_empty():
    assert BitSet.full_range(7, 7).cardinality == 0


def test_bitset_requires_aligned_base():
    with pytest.raises(ValueError):
        BitSet(3, np.zeros(1, dtype=np.uint64))


def test_bitset_select():
    bs = BitSet.from_values(np.array([1, 2, 3], dtype=np.uint32))
    picked = bs.select(np.array([True, False, True]))
    assert list(picked.to_array()) == [1, 3]


def test_bitset_min_max_word_boundaries():
    # endpoints at word edges, mid-word, and across zero words
    for values in (
        [0],
        [63],
        [64],
        [0, 63],
        [63, 64],
        [5, 700],
        [130, 140, 190],
        [64, 128, 1000, 4097],
    ):
        bs = BitSet.from_values(np.array(values, dtype=np.uint32))
        assert bs.min_value == values[0]
        assert bs.max_value == values[-1]


def test_bitset_min_max_no_full_materialization():
    # the word-scan must not touch to_array()
    class NoMaterialize(BitSet):
        __slots__ = ()

        def to_array(self):
            raise AssertionError("min/max materialized the whole set")

    src = BitSet.from_values(np.array([70, 100000], dtype=np.uint32))
    bs = NoMaterialize(src.base, src.words)
    assert bs.min_value == 70
    assert bs.max_value == 100000


def test_bitset_min_max_empty_raises():
    bs = BitSet.empty()
    with pytest.raises(ValueError):
        _ = bs.min_value
    with pytest.raises(ValueError):
        _ = bs.max_value


@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, unique=True))
@settings(max_examples=100, deadline=None)
def test_bitset_min_max_matches_members(values):
    bs = BitSet.from_values(np.array(sorted(values), dtype=np.uint32))
    assert bs.min_value == min(values)
    assert bs.max_value == max(values)


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------


def _as(layout, values):
    arr = np.array(sorted(set(values)), dtype=np.uint32)
    if layout == "bs":
        return BitSet.from_values(arr)
    return UintSet(arr)


@pytest.mark.parametrize("la", ["uint", "bs"])
@pytest.mark.parametrize("lb", ["uint", "bs"])
def test_intersect_all_layout_pairs(la, lb):
    a = _as(la, [1, 3, 64, 100, 257])
    b = _as(lb, [3, 4, 100, 256, 257])
    out = intersect(a, b)
    assert list(out.to_array()) == [3, 100, 257]


@pytest.mark.parametrize("la", ["uint", "bs"])
@pytest.mark.parametrize("lb", ["uint", "bs"])
def test_intersect_disjoint_is_empty(la, lb):
    a = _as(la, [1, 2, 3])
    b = _as(lb, [1000, 2000])
    assert len(intersect(a, b)) == 0


def test_intersect_result_layout_convention():
    bs = _as("bs", range(100))
    us = _as("uint", [5, 50, 500])
    assert intersect(bs, bs).layout is Layout.BITSET
    assert intersect(bs, us).layout is Layout.UINT
    assert intersect(us, us).layout is Layout.UINT


def test_intersect_many_three_sets():
    sets = [_as("bs", range(0, 100)), _as("uint", [5, 7, 98, 200]), _as("bs", range(5, 99))]
    out = intersect_many(sets)
    assert list(out.to_array()) == [5, 7, 98]


def test_intersect_many_requires_input():
    with pytest.raises(ValueError):
        intersect_many([])


def test_intersect_many_single_set_passthrough():
    s = _as("uint", [1, 2])
    assert intersect_many([s]) is s


# ---------------------------------------------------------------------------
# union / difference
# ---------------------------------------------------------------------------


def test_union_mixed_layouts():
    out = union(_as("bs", [1, 2]), _as("uint", [2, 9000]))
    assert list(out.to_array()) == [1, 2, 9000]


def test_union_many():
    out = union_many([_as("uint", [1]), _as("uint", [2]), UintSet.empty()])
    assert list(out.to_array()) == [1, 2]


def test_union_many_empty():
    assert len(union_many([])) == 0


def test_difference():
    out = difference(_as("uint", [1, 2, 3]), _as("bs", [2]))
    assert list(out.to_array()) == [1, 3]


# ---------------------------------------------------------------------------
# property-based tests: layouts must agree with Python sets
# ---------------------------------------------------------------------------

values_strategy = st.lists(st.integers(min_value=0, max_value=5000), max_size=300)


@settings(max_examples=60, deadline=None)
@given(values_strategy, values_strategy)
def test_property_intersection_matches_python_sets(xs, ys):
    for layout_a in (None, Layout.BITSET):
        for layout_b in (None, Layout.BITSET):
            a = from_unsorted(np.array(xs, dtype=np.int64), force_layout=layout_a)
            b = from_unsorted(np.array(ys, dtype=np.int64), force_layout=layout_b)
            got = set(int(v) for v in intersect(a, b).to_array())
            assert got == (set(xs) & set(ys))


@settings(max_examples=60, deadline=None)
@given(values_strategy, values_strategy)
def test_property_union_matches_python_sets(xs, ys):
    a = from_unsorted(np.array(xs, dtype=np.int64))
    b = from_unsorted(np.array(ys, dtype=np.int64))
    got = set(int(v) for v in union(a, b).to_array())
    assert got == (set(xs) | set(ys))


@settings(max_examples=60, deadline=None)
@given(values_strategy)
def test_property_bitset_roundtrip_and_ranks(xs):
    uniq = sorted(set(xs))
    arr = np.array(uniq, dtype=np.uint32)
    bs = BitSet.from_values(arr)
    assert np.array_equal(bs.to_array(), arr)
    if uniq:
        assert np.array_equal(bs.rank_present(arr), np.arange(len(uniq)))


@settings(max_examples=60, deadline=None)
@given(values_strategy)
def test_property_layouts_agree_on_membership(xs):
    arr = np.unique(np.array(xs, dtype=np.int64)) if xs else np.empty(0, np.int64)
    us = from_unsorted(arr, force_layout=Layout.UINT)
    probe = np.arange(0, 5001, 7)
    if arr.size:
        bs = from_unsorted(arr, force_layout=Layout.BITSET)
        assert np.array_equal(us.contains_many(probe), bs.contains_many(probe))
    assert us.cardinality == arr.size
