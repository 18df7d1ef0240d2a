"""The dense-code kernels against the comparison sorts they replaced.

``group_runs`` must reproduce the old implementation's output *exactly*
-- the same ``(order, starts)`` -- because row order inside a group
fixes float summation order.  The reference below is a test-local copy
of the removed code: ``np.unique`` over a record view.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xcution.codes import (
    group_runs,
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


def assert_same_runs(columns, cardinalities=None):
    order, starts = group_runs(columns, cardinalities)
    want_order, want_starts = reference_group_runs(columns)
    assert np.array_equal(order, want_order)
    assert np.array_equal(starts, want_starts)


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
