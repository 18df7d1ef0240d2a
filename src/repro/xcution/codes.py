"""Sort-free relational kernels over dense integer codes.

Order-preserving dictionary codes (Section III-B) make grouping and
trie construction array work: every relational "sort" in the engine
goes through this module, which never comparison-sorts a record array.

* :func:`group_runs` turns GROUP BY columns into per-column dense codes,
  packs them mixed-radix into one integer and orders rows with a stable
  LSD radix sort (16-bit ``lexsort`` digits), so groups come out in
  lexicographic column order with input row order kept inside each
  group -- the order ``np.unique`` over a record view used to give.
  :func:`row_order` is that ordering step alone (the trie builder's).
* :func:`segmented_reduce` / :func:`row_values` are the one copy of the
  coefficient x slot product loop and the sum/min/max ``reduceat`` loop.

Kernel time is attributed to the active :class:`KernelProfiler` under
``group.order`` and ``group.reduce``.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..obs import profile as _profile
from ..sets.layout import fits_table

#: packed keys stay below this so ``key * cardinality + code`` cannot
#: overflow int64 before the next overflow check.
_PACK_LIMIT = 1 << 62

_REDUCERS = {"min": np.minimum, "max": np.maximum}


def _profiled(category: str, start: float) -> None:
    profiler = _profile.active()
    if profiler is not None:
        profiler.add_category(category, time.perf_counter() - start)


def column_codes(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving dense codes of one column and their cardinality.

    Integers spanning a range no wider than a few times the row count
    are shifted to start at zero (no sort); anything else is ranked with
    a per-column ``np.unique``.
    """
    column = np.asarray(column)
    if column.dtype.kind in "iub" and column.size:
        low, high = int(column.min()), int(column.max())
        span = high - low + 1
        if fits_table(span, column.size):
            if column.dtype == np.uint64:  # may not fit int64 before the shift
                return (column - np.uint64(low)).astype(np.int64), span
            return column.astype(np.int64) - low, span
    values, inverse = np.unique(column, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), int(values.size)


def pack(
    columns: Sequence[np.ndarray], cardinalities: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """Mixed-radix pack parallel code columns into one int64 key.

    The first column is the most significant digit, so packed keys order
    like the column tuples.  When the cardinality product would leave 62
    bits the accumulated key is densely re-encoded first (its
    cardinality drops to at most the row count).
    """
    key = np.asarray(columns[0]).astype(np.int64, copy=False)
    cardinality = int(cardinalities[0])
    for column, card in zip(columns[1:], cardinalities[1:]):
        card = int(card)
        if cardinality * card >= _PACK_LIMIT:
            key, cardinality = column_codes(key)
        if cardinality * card >= _PACK_LIMIT:
            column, card = column_codes(column)
        key = key * np.int64(card) + np.asarray(column).astype(np.int64)
        cardinality *= card
    return key, cardinality


def stable_order(key: np.ndarray, cardinality: int) -> np.ndarray:
    """Stable ascending order of non-negative ``key < cardinality``.

    An LSD radix sort: ``lexsort`` over the key's 16-bit digits runs one
    counting pass per digit instead of a comparison sort.
    """
    bits = max(int(cardinality) - 1, 1).bit_length()
    digits = [
        (key >> np.int64(shift)).astype(np.uint16) for shift in range(0, bits, 16)
    ]
    return np.lexsort(digits)


def row_order(
    columns: Sequence[np.ndarray],
    cardinalities: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic row order of ``columns``: ``(order, key)``.

    ``order`` is the permutation ``np.lexsort(columns[::-1])`` gives
    (first column most significant, ties in input order); ``key`` is the
    packed per-row key it sorts.  ``cardinalities`` declare code columns
    as in :func:`group_runs`.  Unprofiled: callers book the time.
    """
    coded: List[np.ndarray] = []
    cards: List[int] = []
    for i, column in enumerate(columns):
        declared = cardinalities[i] if cardinalities is not None else None
        if declared is None:
            column, declared = column_codes(column)
        coded.append(column)
        cards.append(declared)
    key, cardinality = pack(coded, cards)
    return stable_order(key, cardinality), key


def group_runs(
    columns: Sequence[np.ndarray],
    cardinalities: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by ``columns``; returns ``(order, starts)``.

    ``order`` permutes rows so equal column tuples are adjacent, groups
    ascend lexicographically (first column most significant) and rows
    keep their input order inside a group; ``starts`` holds each group's
    first position in ``order``.  ``cardinalities[i]``, when given,
    declares column ``i`` already holds codes in ``[0, cardinality)``
    (dictionary codes); other columns are coded by :func:`column_codes`.
    At least one column; :func:`whole_run` covers the ungrouped case.
    """
    start = time.perf_counter()
    n_rows = int(np.asarray(columns[0]).shape[0])
    if n_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order, key = row_order(columns, cardinalities)
    ordered = key[order]
    boundary = np.empty(n_rows, dtype=bool)
    boundary[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    _profiled("group.order", start)
    return order, starts


def whole_run(n_rows: int) -> Tuple[None, np.ndarray]:
    """The ``(order, starts)`` of a query without GROUP BY columns: every
    row in one run, in input order (no run at all over zero rows)."""
    return None, np.zeros(1 if n_rows else 0, dtype=np.int64)


def row_values(
    aggregates, slot_columns, n_rows: int, implicit=()
) -> Iterator[np.ndarray]:
    """Per-row contribution of every aggregate, before grouping.

    SUM/COUNT aggregates sum ``coefficient x slot x ...`` terms; slots
    in ``implicit`` are multiplicities already physical in the rows and
    are skipped.  MIN/MAX aggregates pass their slot through.  Lazy, so
    :func:`segmented_reduce` holds one aggregate's rows at a time.
    """
    for agg in aggregates:
        if agg.func in _REDUCERS:
            column = slot_columns.get(agg.minmax_slot)
            if column is None:
                raise ExecutionError(f"missing min/max slot '{agg.minmax_slot}'")
            yield np.asarray(column).astype(np.float64, copy=False)
            continue
        total = np.zeros(n_rows, dtype=np.float64)
        for coefficient, slot_ids in agg.terms:
            term = None
            for slot_id in slot_ids:
                if slot_id in implicit:
                    continue
                column = slot_columns.get(slot_id)
                if column is None:
                    raise ExecutionError(f"missing slot '{slot_id}'")
                if term is None:  # float64 whatever the slot's own width
                    term = np.multiply(float(coefficient), column, dtype=np.float64)
                else:
                    term = term * column
            total += float(coefficient) if term is None else term
        yield total


def segmented_reduce(
    agg_funcs: Sequence[str],
    value_columns: Iterable[np.ndarray],
    order: Optional[np.ndarray],
    starts: np.ndarray,
) -> np.ndarray:
    """Reduce each value column over the runs ``group_runs`` found.

    Returns the ``(groups, aggregates)`` float64 matrix: addition for
    SUM/COUNT, elementwise extremum for MIN/MAX.  ``order=None`` means
    the rows already sit in run order.
    """
    start = time.perf_counter()
    matrix = np.empty((starts.size, len(agg_funcs)), dtype=np.float64)
    if starts.size:
        for j, (func, values) in enumerate(zip(agg_funcs, value_columns)):
            if order is not None:
                values = values[order]
            matrix[:, j] = _REDUCERS.get(func, np.add).reduceat(values, starts)
    _profiled("group.reduce", start)
    return matrix


def reduce_groups(
    agg_funcs: Sequence[str],
    key_columns: Sequence[np.ndarray],
    value_columns: Iterable[np.ndarray],
    n_rows: int,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """One row per distinct key tuple: ``(key columns, aggregate matrix)``.

    Groups ascend lexicographically (as :func:`group_runs` orders them),
    each reduced over its rows in input order.
    """
    if not key_columns:
        order, starts = whole_run(n_rows)
        return [], segmented_reduce(agg_funcs, value_columns, order, starts)
    order, starts = group_runs(key_columns)
    first = order[starts]
    keys = [column[first] for column in key_columns]
    return keys, segmented_reduce(agg_funcs, value_columns, order, starts)
