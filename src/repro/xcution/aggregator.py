"""Grouped aggregation state for the join executor.

The executor reduces each window of fully bound rows to one row per
group and hands the result to a :class:`GroupAggregator` as a columnar
batch: group-key columns plus a matrix with one column per aggregate.
Batches may share groups; :meth:`GroupAggregator.consolidate` folds them
with each aggregate's additive operator -- addition for SUM/COUNT,
elementwise min/max for MIN/MAX, the additive operator of the slot's
semiring -- through :func:`repro.xcution.codes.reduce_groups`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OutOfMemoryBudgetError
from .codes import reduce_groups

#: check the memory budget every this many new group rows.
_BUDGET_CHECK_EVERY = 65536

#: (group-key columns, aggregate matrix) -- one row per group.
Batch = Tuple[List[np.ndarray], np.ndarray]


class GroupAggregator:
    """Accumulates aggregate vectors keyed by group columns."""

    def __init__(
        self,
        agg_funcs: Sequence[str],
        memory_budget_bytes: Optional[int] = None,
        group_width: int = 0,
    ):
        self.agg_funcs = tuple(agg_funcs)
        self.n_aggs = len(agg_funcs)
        #: live batches, each unique on its keys (not across batches).
        self._batches: List[Batch] = []
        self._batch_rows = 0
        self._budget = memory_budget_bytes
        self._group_width = group_width
        self._since_check = 0
        #: graceful degradation under budget pressure: instead of dying,
        #: all state is reduced into one deduplicated run accounted at the
        #: lean columnar rate (8 bytes per cell, no per-group overhead).
        #: Only grouped state (a non-zero ``group_width``) spills; a grand
        #: aggregate just consolidates to its one row.
        self._spilled: List[Batch] = []
        self._spilled_rows = 0
        #: degradations performed (mirrored into
        #: ``ExecutionStats.aggregator_spills`` by the executor).
        self.spills = 0

    def add_batch(self, columns: List[np.ndarray], matrix: np.ndarray) -> None:
        """Add groups ``columns`` (unique within this batch) with their
        aggregate rows ``matrix``."""
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

    def consolidate(self) -> None:
        """Reduce all state to one row per group, groups in ascending key
        order, each summed in batch order.  A degraded aggregator stays
        degraded: its merged rows remain a spilled run."""
        if len(self._spilled) + len(self._batches) > 1:
            self._collapse(spilled=bool(self._spilled))

    def check_budget(self) -> None:
        """Force a budget check now (end of node).

        The incremental checks fire only every ``_BUDGET_CHECK_EVERY``
        new group rows; executors call this once the node's state is
        complete so an over-budget aggregation is reported
        deterministically regardless of scale.
        """
        self._check_budget()

    def approx_bytes(self) -> int:
        """Approximate bytes held by the aggregation state.

        Rough accounting -- key tuple plus float vector per live group --
        the same estimate the memory budget is enforced against, also
        used by the kernel profiler's per-node memory high-water.
        """
        per_group = 64 + 8 * (self._group_width + self.n_aggs)
        # spilled runs are accounted as pure columnar arrays: 8 bytes per
        # cell plus a small per-row allowance -- the difference is
        # exactly what degrading buys.
        per_spilled = 8 + 8 * (self._group_width + self.n_aggs)
        return per_group * self._batch_rows + per_spilled * self._spilled_rows

    def _check_budget(self) -> None:
        self._since_check = 0
        if self._budget is None:
            return
        if self.approx_bytes() > self._budget:
            if self._group_width and self._batches:
                # degrade: every batch and run becomes one spilled run
                self._collapse(spilled=True)
                self.spills += 1
            else:
                self.consolidate()
        used = self.approx_bytes()
        if used > self._budget:
            raise OutOfMemoryBudgetError(
                f"aggregation state exceeded memory budget "
                f"({used} > {self._budget} bytes, {len(self)} groups)",
                requested_bytes=used,
                budget_bytes=self._budget,
            )

    def _collapse(self, spilled: bool) -> None:
        """Replace all state by one deduplicated run (live or spilled)."""
        runs = self._spilled + self._batches
        if len(runs) == 1:
            run = runs[0]
        else:
            columns = [
                np.concatenate([run[0][i] for run in runs])
                for i in range(self._group_width)
            ]
            matrix = np.vstack([run[1] for run in runs])
            run = reduce_groups(self.agg_funcs, columns, matrix.T, int(matrix.shape[0]))
        rows = int(run[1].shape[0])
        self._batches, self._batch_rows = ([], 0) if spilled else ([run], rows)
        self._spilled, self._spilled_rows = ([run], rows) if spilled else ([], 0)

    def __len__(self) -> int:
        """Group rows held (exact after :meth:`consolidate`; before it a
        group present in several batches counts once per batch)."""
        return self._batch_rows + self._spilled_rows

    def result_arrays(self) -> Batch:
        """Return (columnar group-key arrays, matrix of aggregate values)."""
        self.consolidate()
        runs = self._spilled + self._batches
        if not runs:
            return [np.empty(0, dtype=np.int64) for _ in range(self._group_width)], np.zeros(
                (0, self.n_aggs)
            )
        return runs[0]
