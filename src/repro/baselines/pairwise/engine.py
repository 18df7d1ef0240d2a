"""The pairwise relational baseline engine (HyPer/MonetDB stand-in).

Executes the same SQL subset as LevelHeaded through a classical
pipeline: scan -> filter -> pairwise equi-joins (in a planned order,
each intermediate fully materialized) -> grouped aggregation.  On BI
queries this architecture is excellent; on LA queries its materialized
intermediates explode -- Table II's ``oom``/``t/o`` entries -- which is
precisely the contrast the paper draws.

Two configurations model the paper's comparison engines:

* ``planner="selinger"`` -- cost-based join ordering (HyPer-like),
* ``planner="fifo"``      -- FROM-order left-deep joins, the simpler
  column-at-a-time configuration standing in for MonetDB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.result import ResultTable
from ...errors import UnsupportedQueryError
from ...query.translate import _rewrite_avg
from ...sql.ast import AggCall, ColumnRef, map_tree
from ...sql.binder import BoundQuery, bind
from ...sql.expressions import evaluate
from ...sql.parser import parse
from ...sql.result_clauses import make_result_resolver, result_row_index
from ...storage.catalog import Catalog
from .planner import PLANNERS, JoinGraph
from .relation import ColumnRelation, group_aggregate, hash_join


class PairwiseEngine:
    """A pairwise-join SQL engine over the same catalog and SQL subset."""

    def __init__(
        self,
        catalog: Catalog,
        planner: str = "selinger",
        memory_budget_bytes: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if planner not in PLANNERS:
            raise ValueError(f"unknown planner '{planner}'")
        self.catalog = catalog
        self.planner = planner
        self.memory_budget_bytes = memory_budget_bytes
        self.name = name or f"pairwise-{planner}"

    # -- public API --------------------------------------------------------------

    def query(self, sql: str) -> ResultTable:
        bound = bind(parse(sql), self.catalog)
        relation = self._join_phase(bound)
        return self._aggregate_phase(bound, relation)

    def join_order(self, sql: str) -> List[str]:
        """The alias order the planner picks (exposed for tests/EXPLAIN)."""
        bound = bind(parse(sql), self.catalog)
        filtered = self._filtered_bases(bound)
        return PLANNERS[self.planner](self._join_graph(bound, filtered))

    # -- join phase ---------------------------------------------------------------

    def _filtered_bases(self, bound: BoundQuery) -> Dict[str, ColumnRelation]:
        bases = {}
        for alias, table in bound.tables.items():
            relation = ColumnRelation.from_table(alias, table)
            predicates = bound.filters.get(alias, [])
            if predicates:
                mask = np.ones(relation.num_rows, dtype=bool)
                for predicate in predicates:
                    value = evaluate(
                        predicate, lambda ref: relation.columns[str(ref)]
                    )
                    mask &= np.asarray(value, dtype=bool)
                relation = relation.select(mask)
            bases[alias] = relation
        return bases

    def _join_graph(self, bound: BoundQuery, bases) -> JoinGraph:
        vertex_members = {}
        vertex_distinct = {}
        for vertex in bound.vertices:
            members = []
            for alias, attr in vertex.members:
                members.append(alias)
                column = bases[alias].columns[f"{alias}.{attr}"]
                vertex_distinct[(vertex.name, alias)] = (
                    int(np.unique(column).size) if column.size else 0
                )
            vertex_members[vertex.name] = members
        return JoinGraph(
            aliases=list(bound.tables.keys()),
            cardinalities={a: r.num_rows for a, r in bases.items()},
            vertex_members=vertex_members,
            vertex_distinct=vertex_distinct,
        )

    def _join_phase(self, bound: BoundQuery) -> ColumnRelation:
        bases = self._filtered_bases(bound)
        aliases = list(bound.tables.keys())
        if len(aliases) == 1:
            return bases[aliases[0]]

        order = PLANNERS[self.planner](self._join_graph(bound, bases))
        member_attr = {
            (alias, vertex.name): attr
            for vertex in bound.vertices
            for alias, attr in vertex.members
        }
        current = bases[order[0]]
        joined = {order[0]}
        for alias in order[1:]:
            left_keys, right_keys = [], []
            for vertex in bound.vertices:
                vertex_aliases = [a for a, _ in vertex.members]
                if alias not in vertex_aliases:
                    continue
                anchors = [a for a in vertex_aliases if a in joined]
                if not anchors:
                    continue
                anchor = anchors[0]
                left_keys.append(f"{anchor}.{member_attr[(anchor, vertex.name)]}")
                right_keys.append(f"{alias}.{member_attr[(alias, vertex.name)]}")
            if not left_keys:
                raise UnsupportedQueryError(
                    f"relation '{alias}' would require a cross product"
                )
            current = hash_join(
                current,
                bases[alias],
                left_keys,
                right_keys,
                memory_budget_bytes=self.memory_budget_bytes,
            )
            joined.add(alias)
        return current


    # -- aggregation phase ------------------------------------------------------------

    def _aggregate_phase(self, bound: BoundQuery, relation: ColumnRelation) -> ResultTable:
        def resolve(ref: ColumnRef):
            return relation.columns[str(ref)]

        select_items = [_rewrite_avg(item) for item in bound.select_items]

        if not bound.is_aggregate and not bound.group_by:
            # plain projection: bag semantics fall out of materialization
            names, columns = [], []
            for item in select_items:
                value = np.asarray(evaluate(item.expr, resolve))
                if value.ndim == 0:
                    value = np.full(relation.num_rows, value)
                names.append(item.output_name)
                columns.append(value)
            outputs = dict(zip(names, columns))

            def resolve_plain(ref):
                if ref.qualifier is None and ref.name in outputs:
                    return outputs[ref.name]
                return relation.columns[str(ref)]

            index = result_row_index(
                resolve_plain,
                relation.num_rows,
                None,
                [(k.expr, k.descending) for k in bound.order_by],
                bound.limit,
            )
            if index is not None:
                columns = [column[index] for column in columns]
            return ResultTable(names, columns)

        # replace aggregate calls with references into the aggregate matrix
        aggregates: List[Tuple[str, AggCall]] = []
        agg_index: Dict[str, str] = {}

        def lift(node):
            if isinstance(node, AggCall):
                token = f"{node.func}({'*' if node.arg is None else node.arg})"
                if token not in agg_index:
                    agg_index[token] = f"agg{len(aggregates)}"
                    aggregates.append((agg_index[token], node))
                return ColumnRef(None, agg_index[token])
            return node

        group_refs: Dict[str, str] = {}
        group_arrays: List[np.ndarray] = []
        for g_idx, expr in enumerate(bound.group_by):
            group_refs[str(expr)] = f"g{g_idx}"
            group_arrays.append(np.asarray(evaluate(expr, resolve)))

        output_items: List[Tuple[str, object]] = []
        for item in select_items:
            text = str(item.expr)
            if text in group_refs:
                output_items.append((item.output_name, ColumnRef(None, group_refs[text])))
            else:
                output_items.append((item.output_name, map_tree(item.expr, lift)))

        def lift_clause(expr):
            text = str(expr)
            if text in group_refs:
                return ColumnRef(None, group_refs[text])
            return map_tree(expr, lift)

        having = None if bound.having is None else lift_clause(bound.having)
        order_keys = [
            (lift_clause(key.expr), key.descending) for key in bound.order_by
        ]

        agg_arrays = []
        for _agg_id, call in aggregates:
            if call.arg is None or call.func == "count":
                agg_arrays.append(("count", np.ones(relation.num_rows)))
            else:
                values = np.asarray(
                    evaluate(call.arg, resolve), dtype=np.float64
                )
                if values.ndim == 0:
                    values = np.full(relation.num_rows, values)
                agg_arrays.append((call.func, values))

        group_columns, matrix = group_aggregate(relation, group_arrays, agg_arrays)

        if not bound.group_by and matrix.shape[0] == 0:
            matrix = np.zeros((1, len(aggregates)))

        n_out = matrix.shape[0]
        env: Dict[str, np.ndarray] = {}
        for g_idx, column in enumerate(group_columns):
            env[f"g{g_idx}"] = column
        for a_idx, (agg_id, _call) in enumerate(aggregates):
            env[agg_id] = matrix[:, a_idx]

        def resolve_out(ref: ColumnRef):
            return env[ref.name]

        names, columns = [], []
        for name, expr in output_items:
            value = np.asarray(evaluate(expr, resolve_out))
            if value.ndim == 0:
                value = np.full(n_out, value)
            names.append(name)
            columns.append(value)

        outputs = dict(zip(names, columns))
        index = result_row_index(
            make_result_resolver(env, outputs), n_out, having, order_keys, bound.limit
        )
        if index is not None:
            columns = [column[index] for column in columns]
        return ResultTable(names, columns)
