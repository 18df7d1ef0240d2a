"""The scan-aggregate path for queries without join keys (TPC-H Q1/Q6).

No hypergraph vertices means no trie traversal: filters become one row
mask, GROUP BY expressions are evaluated row-wise, and aggregates
reduce over group runs found by :func:`repro.xcution.codes.group_runs`
-- a stable radix order over dense per-column codes, never a sort of
the raw values.  A GROUP BY on a plain string column groups on the
table's cached dictionary codes and decodes only the output groups.
Attribute elimination shows up here as "only touch the referenced
columns" -- the Table III ablation forces a pass over every column
instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..obs import NULL_TRACER
from ..sql.ast import ColumnRef
from ..sql.expressions import evaluate
from ..storage.schema import AttrType
from .codes import group_runs, row_values, segmented_reduce, whole_run
from .plan import ScanPlan


def execute_scan(
    plan: ScanPlan, tracer=NULL_TRACER
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Run a scan plan; returns (columnar group keys, aggregate matrix).

    Group key columns hold *raw* values (strings, years, ...), unlike
    the join path's dictionary codes.  ``tracer`` records the
    ``group.order`` and ``group.reduce`` spans around the code kernels.
    """
    table = plan.table

    if plan.touch_all_columns:
        # -Attr.Elim ablation: force memory traffic over the full width.
        for column in table.columns.values():
            column.copy()

    def resolve(ref):
        return table.columns[ref.name]

    mask = None
    for predicate in plan.filters:
        value = np.asarray(evaluate(predicate, resolve, plan.params), dtype=bool)
        mask = value if mask is None else (mask & value)

    def masked(values):
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(table.num_rows, arr)
        return arr if mask is None else arr[mask]

    n_rows = int(mask.sum()) if mask is not None else table.num_rows
    slot_rows: Dict[str, np.ndarray] = {}
    count_slots = set()
    for slot_id, (expr, combine) in plan.slot_exprs.items():
        if expr is None:  # count-style slot: every row contributes 1
            count_slots.add(slot_id)
        else:
            slot_rows[slot_id] = masked(evaluate(expr, resolve)).astype(np.float64)
    values = row_values(plan.aggregates, slot_rows, n_rows, implicit=count_slots)
    agg_funcs = [agg.func for agg in plan.aggregates]

    if plan.group_exprs:
        # plain string columns group on their cached dictionary codes
        group_columns, cardinalities, dictionaries = [], [], []
        for g in plan.group_exprs:
            dictionary = None
            if (
                isinstance(g.expr, ColumnRef)
                and table.schema.attribute(g.expr.name).type is AttrType.STRING
            ):
                dictionary = table.string_dictionary(g.expr.name)
                column = masked(table.string_codes(g.expr.name))
            else:
                column = masked(evaluate(g.expr, resolve))
            group_columns.append(column)
            cardinalities.append(None if dictionary is None else dictionary.size)
            dictionaries.append(dictionary)
        with tracer.span("group.order"):
            order, starts = group_runs(group_columns, cardinalities)
        first = order[starts]
        key_columns = [
            col[first] if d is None else d.values[col[first]]
            for col, d in zip(group_columns, dictionaries)
        ]
    else:
        order, starts = whole_run(n_rows)
        key_columns = []
    with tracer.span("group.reduce"):
        matrix = segmented_reduce(agg_funcs, values, order, starts)

    # A global aggregate over an empty selection returns zero rows here;
    # the decode layer emits the one-row identity result (COUNT/SUM -> 0,
    # MIN/MAX -> NaN) so scan and join paths agree.
    return key_columns, matrix
