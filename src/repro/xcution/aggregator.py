"""Grouped aggregation state for the join executor.

The executor walks full attribute assignments and feeds per-group
contribution vectors (one entry per aggregate) into a
:class:`GroupAggregator`.  SUM/COUNT aggregates accumulate by addition,
MIN/MAX by elementwise min/max -- i.e. the additive operator of the
slot's semiring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OutOfMemoryBudgetError
from .codes import group_runs, segmented_reduce

#: check the memory budget every this many new groups.
_BUDGET_CHECK_EVERY = 65536


class GroupAggregator:
    """Accumulates aggregate vectors keyed by group tuples."""

    def __init__(
        self,
        agg_funcs: Sequence[str],
        memory_budget_bytes: Optional[int] = None,
        group_width: int = 0,
    ):
        self.agg_funcs = tuple(agg_funcs)
        self.n_aggs = len(agg_funcs)
        self._sum_mask = np.array([f in ("sum", "count") for f in agg_funcs])
        self._min_mask = np.array([f == "min" for f in agg_funcs])
        self._max_mask = np.array([f == "max" for f in agg_funcs])
        self._all_additive = bool(self._sum_mask.all()) if self.n_aggs else True
        self.groups: Dict[Tuple, np.ndarray] = {}
        #: columnar batches of groups known to be unique (fast path for
        #: large materialized outputs like SMM): (key columns, matrix).
        self._batches: List[Tuple[List[np.ndarray], np.ndarray]] = []
        self._batch_rows = 0
        self._budget = memory_budget_bytes
        self._group_width = group_width
        self._since_check = 0
        #: graceful degradation under budget pressure: instead of dying,
        #: the dict-backed accumulation state spills into sorted-sparse
        #: columnar runs (8 bytes per cell instead of a keyed dict
        #: entry's ~64-byte overhead); ``result_arrays`` merges the runs
        #: back with a sort + segmented reduce, so results are identical
        #: to the dense path up to row order.  Only grouped state (a
        #: non-zero ``group_width``) has anything to spill.
        self._spilled: List[Tuple[List[np.ndarray], np.ndarray]] = []
        self._spilled_rows = 0
        #: degradations performed (mirrored into
        #: ``ExecutionStats.aggregator_spills`` by the executor).
        self.spills = 0

    def add(self, key: Tuple, contribution: np.ndarray) -> None:
        """Merge one contribution vector into ``key``'s accumulator."""
        existing = self.groups.get(key)
        if existing is None:
            self.groups[key] = np.array(contribution, dtype=np.float64)
            self._since_check += 1
            if self._since_check >= _BUDGET_CHECK_EVERY:
                self._check_budget()
        elif self._all_additive:
            existing += contribution
        else:
            existing[self._sum_mask] += contribution[self._sum_mask]
            if self._min_mask.any():
                existing[self._min_mask] = np.minimum(
                    existing[self._min_mask], contribution[self._min_mask]
                )
            if self._max_mask.any():
                existing[self._max_mask] = np.maximum(
                    existing[self._max_mask], contribution[self._max_mask]
                )

    def add_batch_unique(
        self, prefix: Tuple, keys: np.ndarray, matrix: np.ndarray
    ) -> None:
        """Bulk-add groups ``prefix + (k,)`` known not to repeat.

        The executor uses this when the group key consists solely of
        materialized join attributes: trie distinctness guarantees each
        full assignment (and thus each group) is produced exactly once,
        so no dictionary merge is needed.
        """
        if keys.size == 0:
            return
        columns = [np.full(keys.size, part, dtype=np.int64) for part in prefix]
        columns.append(keys)
        self.add_batch_unique_columns(columns, matrix)

    def add_batch_unique_columns(
        self, columns: List[np.ndarray], matrix: np.ndarray
    ) -> None:
        """Bulk-add fully columnar unique groups (flat-kernel output)."""
        n = int(matrix.shape[0])
        if n == 0:
            return
        if len(columns) != self._group_width:
            raise ValueError("batch key width does not match the group layout")
        self._batches.append((columns, matrix))
        self._batch_rows += n
        self._since_check += n
        if self._since_check >= _BUDGET_CHECK_EVERY:
            self._check_budget()

    def merge(self, other: "GroupAggregator") -> None:
        """Fold another aggregator in (parfor partial results).

        The budget is re-checked unconditionally after every merge:
        merges are rare (one per parfor chunk), and the merged state is
        exactly where apportioned per-worker budgets could otherwise add
        up past the global ``memory_budget_bytes``.
        """
        for key, value in other.groups.items():
            self.add(key, value)
        self._batches.extend(other._batches)
        self._batch_rows += other._batch_rows
        self._spilled.extend(other._spilled)
        self._spilled_rows += other._spilled_rows
        self.spills += other.spills
        if self._budget is not None:
            self._check_budget()

    def check_budget(self) -> None:
        """Force a budget check now (end-of-node, post-merge).

        The incremental checks fire only every ``_BUDGET_CHECK_EVERY``
        new groups; executors call this once the node's state is
        complete so an over-budget aggregation is reported
        deterministically regardless of scale.
        """
        self._check_budget()

    def approx_bytes(self) -> int:
        """Approximate bytes held by the aggregation state.

        Rough accounting -- key tuple plus float vector per group -- the
        same estimate the memory budget is enforced against, also used
        by the kernel profiler's per-node memory high-water.
        """
        per_group = 64 + 8 * (self._group_width + self.n_aggs)
        # spilled runs are pure columnar arrays: 8 bytes per cell plus a
        # small per-row allowance, with no keyed-dict overhead -- that
        # difference is exactly what degrading buys.
        per_spilled = 8 + 8 * (self._group_width + self.n_aggs)
        return (
            per_group * (len(self.groups) + self._batch_rows)
            + per_spilled * self._spilled_rows
        )

    def _check_budget(self) -> None:
        self._since_check = 0
        if self._budget is None:
            return
        used = self.approx_bytes()
        if used > self._budget and self._group_width > 0:
            self._spill()
            used = self.approx_bytes()
        if used > self._budget:
            raise OutOfMemoryBudgetError(
                f"aggregation state exceeded memory budget "
                f"({used} > {self._budget} bytes, "
                f"{len(self.groups) + self._batch_rows + self._spilled_rows} groups)",
                requested_bytes=used,
                budget_bytes=self._budget,
            )

    def _spill(self) -> bool:
        """Degrade: move live state into sorted columnar runs.

        Both the dict-backed groups and the pending unique batches move
        into runs sorted by group key, so ``result_arrays`` can merge
        every run (and late dict re-adds of already-spilled keys) with
        one radix order + segmented reduce per aggregate function.  Spilled
        rows are accounted at the lean columnar rate, which is exactly
        what degrading buys under budget pressure.
        """
        spilled_any = False
        if self.groups:
            keys = list(self.groups.keys())
            columns = [
                np.array([key[i] for key in keys], dtype=np.int64)
                for i in range(self._group_width)
            ]
            matrix = np.vstack([self.groups[key] for key in keys])
            order = np.lexsort(tuple(reversed(columns)))
            self._spilled.append(([col[order] for col in columns], matrix[order]))
            self._spilled_rows += len(keys)
            self.groups.clear()
            spilled_any = True
        if self._batches:
            columns = [
                np.concatenate([batch[0][i] for batch in self._batches])
                for i in range(self._group_width)
            ]
            matrix = np.vstack([batch[1] for batch in self._batches])
            order = np.lexsort(tuple(reversed(columns)))
            self._spilled.append(([col[order] for col in columns], matrix[order]))
            self._spilled_rows += int(matrix.shape[0])
            self._batches.clear()
            self._batch_rows = 0
            spilled_any = True
        if spilled_any:
            self.spills += 1
        return spilled_any

    def _merge_spilled(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Combine the spilled runs and any live dict groups, deduplicated.

        Duplicate keys (a group touched both before and after a spill,
        or present in several parfor partials) are reduced with each
        aggregate's own combine: addition for SUM/COUNT, elementwise
        min/max for MIN/MAX -- the same semiring ops the dense path
        applies incrementally, so values match it exactly for integer
        -valued aggregates and up to float re-association otherwise.
        """
        runs = list(self._spilled)
        if self.groups:
            keys = list(self.groups.keys())
            runs.append(
                (
                    [
                        np.array([key[i] for key in keys], dtype=np.int64)
                        for i in range(self._group_width)
                    ],
                    np.vstack([self.groups[key] for key in keys]),
                )
            )
        columns = [
            np.concatenate([run[0][i] for run in runs])
            for i in range(self._group_width)
        ]
        matrix = np.vstack([run[1] for run in runs])
        order, starts = group_runs(columns)
        out = segmented_reduce(self.agg_funcs, matrix.T, order, starts)
        first = order[starts]
        return [col[first] for col in columns], out

    def __len__(self) -> int:
        """Groups held (an upper bound while degraded: a key spilled and
        then touched again counts once per run until ``result_arrays``
        deduplicates)."""
        return len(self.groups) + self._batch_rows + self._spilled_rows

    def result_arrays(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return (columnar group-key arrays, matrix of aggregate values)."""
        width = self._group_width
        matrices: List[np.ndarray] = []
        if self._spilled:
            # degraded mode: sorted-sparse runs (plus any post-spill dict
            # re-adds) merge through one sort + segmented reduce
            key_cols, merged = self._merge_spilled()
            matrices.append(merged)
        else:
            dict_keys = list(self.groups.keys())
            if dict_keys:
                key_cols = [
                    np.array([key[i] for key in dict_keys]) for i in range(width)
                ]
                matrices.append(np.vstack([self.groups[k] for k in dict_keys]))
            else:
                key_cols = [np.empty(0, dtype=np.int64) for _ in range(width)]
        if self._batches:
            batch_cols: List[List[np.ndarray]] = [[] for _ in range(width)]
            for columns, matrix in self._batches:
                for i in range(width):
                    batch_cols[i].append(columns[i])
                matrices.append(matrix)
            key_cols = [
                np.concatenate(
                    ([key_cols[i]] if key_cols[i].size else []) + batch_cols[i]
                )
                for i in range(width)
            ]
        if not matrices:
            return [np.empty(0, dtype=np.int64) for _ in range(width)], np.zeros(
                (0, self.n_aggs)
            )
        return key_cols, np.vstack(matrices) if len(matrices) > 1 else matrices[0]
