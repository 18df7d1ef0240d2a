"""Columnar relations and the pairwise operators of a classic RDBMS.

This is the substrate of the HyPer/MonetDB stand-in: vectorized
column-at-a-time scans, filters, and *pairwise* equi-joins that
materialize each intermediate result -- the architectural property the
paper contrasts with worst-case optimal joins.  The join enforces an
optional memory budget so that the exploding intermediates pairwise
plans produce on LA queries surface as the deterministic ``oom``
entries of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import OutOfMemoryBudgetError


@dataclass
class ColumnRelation:
    """An intermediate result: named columns (``alias.column``) of equal length."""

    columns: Dict[str, np.ndarray]
    num_rows: int

    @classmethod
    def from_table(cls, alias: str, table) -> "ColumnRelation":
        columns = {
            f"{alias}.{name}": table.columns[name] for name in table.schema.names
        }
        return cls(columns=columns, num_rows=table.num_rows)

    def select(self, mask: np.ndarray) -> "ColumnRelation":
        return ColumnRelation(
            columns={name: col[mask] for name, col in self.columns.items()},
            num_rows=int(np.count_nonzero(mask)),
        )

    def project(self, names: Sequence[str]) -> "ColumnRelation":
        return ColumnRelation(
            columns={name: self.columns[name] for name in names},
            num_rows=self.num_rows,
        )


def _composite(relation: ColumnRelation, names: Sequence[str]) -> np.ndarray:
    """A sortable composite key over one or more columns."""
    arrays = [relation.columns[name] for name in names]
    if len(arrays) == 1:
        return arrays[0]
    return np.rec.fromarrays(arrays)


def hash_join(
    left: ColumnRelation,
    right: ColumnRelation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    memory_budget_bytes: Optional[int] = None,
) -> ColumnRelation:
    """Pairwise equi-join, fully materializing the output.

    Implemented as a vectorized sort-probe join (build side sorted,
    probe side binary-searched, matches expanded with ``repeat``); the
    cost model -- O(sort) + O(output) materialization -- is the one that
    matters for the paper's comparison.
    """
    if len(left_keys) != len(right_keys):
        raise ValueError("join key arity mismatch")
    if left.num_rows == 0 or right.num_rows == 0:
        return ColumnRelation(
            columns={
                **{n: c[:0] for n, c in left.columns.items()},
                **{n: c[:0] for n, c in right.columns.items()},
            },
            num_rows=0,
        )

    build, probe = (right, left)
    build_keys, probe_keys = (right_keys, left_keys)
    swapped = False
    if left.num_rows < right.num_rows:
        build, probe = (left, right)
        build_keys, probe_keys = (left_keys, right_keys)
        swapped = True

    build_composite = _composite(build, build_keys)
    order = np.argsort(build_composite, kind="stable")
    sorted_keys = build_composite[order]
    probe_composite = _composite(probe, probe_keys)

    lo = np.searchsorted(sorted_keys, probe_composite, side="left")
    hi = np.searchsorted(sorted_keys, probe_composite, side="right")
    counts = (hi - lo).astype(np.int64)
    total = int(counts.sum())

    if memory_budget_bytes is not None:
        width = sum(c.dtype.itemsize for c in left.columns.values()) + sum(
            c.dtype.itemsize for c in right.columns.values()
        )
        needed = total * max(8, width)
        if needed > memory_budget_bytes:
            raise OutOfMemoryBudgetError(
                f"pairwise join intermediate of {total} rows "
                f"(~{needed} bytes) exceeds the memory budget",
                requested_bytes=needed,
                budget_bytes=memory_budget_bytes,
            )

    probe_idx = np.repeat(np.arange(probe.num_rows), counts)
    # positions within each probe row's match range
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = order[starts + offsets]

    left_idx, right_idx = (build_idx, probe_idx) if swapped else (probe_idx, build_idx)
    columns = {}
    for name, col in left.columns.items():
        columns[name] = col[left_idx]
    for name, col in right.columns.items():
        columns[name] = col[right_idx]
    return ColumnRelation(columns=columns, num_rows=total)


def group_aggregate(
    relation: ColumnRelation,
    group_arrays: Sequence[np.ndarray],
    agg_arrays: Sequence[Tuple[str, np.ndarray]],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Grouped aggregation: (group columns, aggregate value matrix).

    ``agg_arrays`` pairs an aggregate function name with the per-row
    values of its argument (ones for COUNT).
    """
    n_rows = relation.num_rows
    n_aggs = len(agg_arrays)
    if not group_arrays:
        matrix = np.zeros((1 if n_rows else 0, n_aggs))
        for a_idx, (func, values) in enumerate(agg_arrays):
            if n_rows == 0:
                continue
            if func in ("sum", "count"):
                matrix[0, a_idx] = float(np.sum(values))
            elif func == "min":
                matrix[0, a_idx] = float(np.min(values))
            elif func == "max":
                matrix[0, a_idx] = float(np.max(values))
        return [], matrix

    if n_rows == 0:
        return [np.asarray(g) for g in group_arrays], np.zeros((0, n_aggs))

    stacked = np.rec.fromarrays(group_arrays)
    unique_rows, inverse = np.unique(stacked, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sorted_inverse = inverse[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_inverse[1:] != sorted_inverse[:-1]))
    )
    matrix = np.zeros((unique_rows.size, n_aggs))
    for a_idx, (func, values) in enumerate(agg_arrays):
        rows = np.asarray(values, dtype=np.float64)[order]
        if func in ("sum", "count"):
            matrix[:, a_idx] = np.add.reduceat(rows, boundaries)
        elif func == "min":
            matrix[:, a_idx] = np.minimum.reduceat(rows, boundaries)
        elif func == "max":
            matrix[:, a_idx] = np.maximum.reduceat(rows, boundaries)
        else:
            raise ValueError(f"unknown aggregate '{func}'")
    group_columns = [unique_rows[name] for name in unique_rows.dtype.names]
    return group_columns, matrix
