"""The dense-code kernels against the comparison sorts they replaced.

``group_runs`` and ``join_indices`` must reproduce the old
implementations' outputs *exactly* -- the same ``(order, starts)``, the
same index pairs in the same order -- because row order inside a group
fixes float summation order and pair order fixes downstream group
order.  The references below are test-local copies of the removed code:
``np.unique`` over a record view, and the ``argsort`` + two
``searchsorted`` merge join.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, LevelHeadedEngine
from repro.datasets.tpch import TPCH_QUERIES, generate_tpch
from repro.xcution.codes import (
    group_runs,
    join_indices,
    pack,
    row_values,
    segmented_reduce,
    stable_order,
)

# ---------------------------------------------------------------------------
# references: the removed implementations
# ---------------------------------------------------------------------------


def reference_group_runs(columns):
    stacked = np.rec.fromarrays(columns)
    _, inverse = np.unique(stacked, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    ordered = inverse[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return order, starts


def reference_merge_join(lkey, rkey):
    order_r = np.argsort(rkey, kind="stable")
    rsorted = rkey[order_r]
    lo = np.searchsorted(rsorted, lkey, side="left")
    hi = np.searchsorted(rsorted, lkey, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_idx = np.repeat(np.arange(lkey.size, dtype=np.int64), counts)
    bases = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(bases, counts)
    return left_idx, order_r[np.repeat(lo, counts) + within]


def assert_same_runs(columns, cardinalities=None):
    order, starts = group_runs(columns, cardinalities)
    want_order, want_starts = reference_group_runs(columns)
    assert np.array_equal(order, want_order)
    assert np.array_equal(starts, want_starts)


def assert_same_pairs(lkey, rkey, domain_size):
    left, right = join_indices(lkey, rkey, domain_size)
    want_left, want_right = reference_merge_join(lkey, rkey)
    assert np.array_equal(left, want_left)
    assert np.array_equal(right, want_right)


# ---------------------------------------------------------------------------
# group_runs
# ---------------------------------------------------------------------------

#: value pools small enough that random rows repeat groups.
_POOLS = {
    "negative_ints": np.array([-7, -1, 0, 3, 1_000_003], dtype=np.int64),
    "floats": np.array([-2.5, -0.0, 0.0, 0.1, 1e300, np.inf]),
    "strings": np.array(["", "A", "AB", "B", "N", "zebra"]),
    "dates": np.array([728294, 728295, 729000, 730119], dtype=np.int64),
    "bools": np.array([False, True]),
    "wide_ints": np.array([-(2**62), -5, 2**40, 2**62], dtype=np.int64),
    "unsigned": np.array([0, 7, 2**63 + 5], dtype=np.uint64),
}


@st.composite
def group_columns(draw):
    n_rows = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        pool = _POOLS[kind]
        picks = draw(
            st.lists(st.integers(0, pool.size - 1), min_size=n_rows, max_size=n_rows)
        )
        columns.append(pool[np.array(picks)])
    return columns


@settings(max_examples=200, deadline=None)
@given(group_columns())
def test_group_runs_matches_record_unique(columns):
    assert_same_runs(columns)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 299), st.integers(0, 2)),
        min_size=1,
        max_size=50,
    )
)
def test_group_runs_on_declared_dictionary_codes(rows):
    columns = [np.array(col, dtype=np.uint32) for col in zip(*rows)]
    assert_same_runs(columns, [5, 300, 3])
    # a declared cardinality may be mixed with columns coded on the fly
    assert_same_runs(columns, [5, None, 3])


def test_group_runs_empty_input():
    order, starts = group_runs([np.empty(0, dtype="<U3"), np.empty(0)])
    assert order.size == 0 and starts.size == 0
    assert order.dtype == np.int64 and starts.dtype == np.int64


def test_group_runs_one_group_keeps_row_order():
    order, starts = group_runs([np.full(1000, "same"), np.zeros(1000)])
    assert np.array_equal(order, np.arange(1000))
    assert np.array_equal(starts, [0])


def test_group_runs_more_than_65536_groups():
    rng = np.random.default_rng(0)
    keys = rng.permutation(np.repeat(np.arange(70_000) * 3 - 50_000, 2))
    assert_same_runs([keys])
    assert_same_runs([keys % 400, keys // 400])
    assert group_runs([keys])[1].size == 70_000


def test_group_runs_cardinality_product_past_63_bits():
    rng = np.random.default_rng(1)
    pool = rng.integers(0, 2**31, size=12)
    columns = [pool[rng.integers(0, pool.size, 600)].astype(np.uint32) for _ in range(4)]
    assert_same_runs(columns, [2**31] * 4)
    # undeclared wide integers rank per column, so the product stays small
    wide = [_POOLS["wide_ints"][rng.integers(0, 4, 600)] for _ in range(4)]
    assert_same_runs(wide)


def test_pack_orders_like_the_column_tuples():
    rng = np.random.default_rng(2)
    cards = [2**31, 2**31, 2**31]
    columns = [rng.integers(0, 2**31, 300) for _ in cards]
    columns[0][:100] = columns[0][0]  # ties on the leading digit
    key, cardinality = pack(columns, cards)
    assert key.min() >= 0 and key.max() < cardinality < 2**63
    assert np.array_equal(
        np.argsort(key, kind="stable"), np.lexsort(tuple(reversed(columns)))
    )


@pytest.mark.parametrize("cardinality", [1, 2, 256, 65_536, 65_537, 2**32 + 1, 2**61])
def test_stable_order_is_a_stable_sort(cardinality):
    rng = np.random.default_rng(3)
    key = rng.integers(0, cardinality, 5000).astype(np.int64)
    key[::7] = key[0]
    assert np.array_equal(stable_order(key, cardinality), np.argsort(key, kind="stable"))


def test_segmented_reduce_is_the_old_reduceat_loop():
    rng = np.random.default_rng(8)
    values = rng.normal(scale=1e6, size=4000)
    keys = rng.integers(0, 9, 4000)
    order, starts = group_runs([keys])
    matrix = segmented_reduce(
        ["sum", "min", "max", "count"], [values] * 4, order, starts
    )
    want_order, want_starts = reference_group_runs([keys])
    ordered = values[want_order]
    for j, ufunc in enumerate([np.add, np.minimum, np.maximum, np.add]):
        assert np.array_equal(matrix[:, j], ufunc.reduceat(ordered, want_starts))
    # order=None: the rows already sit in run order
    whole = segmented_reduce(["sum"], [values], None, np.zeros(1, dtype=np.int64))
    assert whole.tolist() == [[np.add.reduceat(values, [0])[0]]]
    assert segmented_reduce(["sum"], [values[:0]], None, starts[:0]).shape == (0, 1)


def test_row_values_multiplies_narrow_slots_in_float64():
    class Agg:
        func = "sum"
        terms = [(3.0, ("v", "w")), (0.5, ())]

    rng = np.random.default_rng(9)
    slots = {
        "v": rng.normal(scale=1e3, size=50).astype(np.float32),
        "w": rng.normal(size=50).astype(np.float32),
    }
    (total,) = row_values([Agg], slots, 50)
    wide = {name: column.astype(np.float64) for name, column in slots.items()}
    assert total.dtype == np.float64
    assert np.array_equal(total, 3.0 * wide["v"] * wide["w"] + 0.5)


# ---------------------------------------------------------------------------
# join_indices
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda domain: st.tuples(
            st.just(domain),
            st.lists(st.integers(0, domain - 1), max_size=30),
            st.lists(st.integers(0, domain - 1), max_size=30),
        )
    ),
    st.sampled_from([np.uint32, np.int64]),
)
def test_join_indices_matches_merge_join(case, dtype):
    domain, left, right = case
    assert_same_pairs(np.array(left, dtype=dtype), np.array(right, dtype=dtype), domain)


def test_join_indices_unique_build_side_with_absent_keys():
    rng = np.random.default_rng(4)
    rkey = rng.permutation(5000)[:3000].astype(np.uint32)  # a primary key, 40% missing
    lkey = rng.integers(0, 5000, 20_000).astype(np.uint32)
    assert_same_pairs(lkey, rkey, 5000)
    left, right = join_indices(lkey, rkey, 5000)
    assert 0 < left.size < lkey.size
    assert np.array_equal(lkey[left], rkey[right])


def test_join_indices_duplicate_build_side():
    rng = np.random.default_rng(5)
    rkey = rng.integers(0, 300, 20_000).astype(np.uint32)
    lkey = rng.integers(0, 400, 500).astype(np.uint32)  # keys 300.. match nothing
    assert_same_pairs(lkey, rkey, 400)


def test_join_indices_sparse_key_space_falls_back_to_sort_merge():
    rng = np.random.default_rng(6)
    domain = 2**40  # far past any table bound for 2500 rows
    pool = rng.integers(0, domain, 700)
    lkey = pool[rng.integers(0, 700, 2000)]
    rkey = np.concatenate([pool[rng.integers(0, 400, 480)], rng.integers(0, domain, 20)])
    assert_same_pairs(lkey, rkey, domain)
    assert join_indices(lkey, rkey, domain)[0].size > 0
    # dictionary codes arrive as uint32
    narrow = [(key % 2**31).astype(np.uint32) for key in (lkey, rkey)]
    assert_same_pairs(*narrow, 2**31)


@pytest.mark.parametrize("domain", [10, 2**40])
def test_join_indices_empty_sides_and_no_matches(domain):
    keys = np.array([1, 2, 3], dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    for lkey, rkey in [(none, keys), (keys, none), (none, none), (keys, keys + 4)]:
        left, right = join_indices(lkey, rkey, domain)
        assert left.size == 0 and right.size == 0
        assert left.dtype == np.int64 and right.dtype == np.int64


# ---------------------------------------------------------------------------
# engine-level pin: the kernels agree with the generic join
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale_factor=0.005, seed=7)


def _sorted_columns(result):
    rows = result.sorted_rows()
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q8", "Q9", "Q10"])
@pytest.mark.parametrize("strategy", ["auto", "binary"])
def test_tpch_columns_match_the_generic_join(tpch, name, strategy):
    sql = TPCH_QUERIES[name]
    want = LevelHeadedEngine(tpch, config=EngineConfig(join_strategy="wcoj")).query(sql)
    got = LevelHeadedEngine(tpch, config=EngineConfig(join_strategy=strategy)).query(sql)
    assert got.names == want.names and got.num_rows == want.num_rows > 0
    for column_name, g, w in zip(want.names, _sorted_columns(got), _sorted_columns(want)):
        integer_valued = w.dtype.kind != "f" or bool(np.all(w == np.rint(w)))
        if integer_valued:
            assert np.array_equal(g, w), column_name
        else:
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=column_name)
