"""Plan-tree execution: Yannakakis-style communication between GHD nodes.

A GHD is an acyclic plan (Section III-C): each child node runs the
generic WCOJ algorithm over its bag, aggregates its result down to the
interface vertices shared with its parent (annotations summed through
the semiring), and hands the parent a materialized trie-backed relation
-- exactly ``node1`` feeding the root in Figure 4's generated code for
TPC-H Q5.  The root node then produces the query's groups and
aggregates.  Scan and BLAS plans dispatch to their own executors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..la import blas
from ..obs import NULL_TRACER
from ..sql.ast import ColumnRef
from ..sql.expressions import evaluate
from ..storage.table import AnnotationRequest
from ..trie import AnnotationSpec, build_trie
from .generic_join import NodeExecutor
from .stats import ExecutionStats
from .plan import (
    BlasPlan,
    EngineConfig,
    NodePlan,
    PhysicalPlan,
    RelationBinding,
)
from .scan import execute_scan


@dataclass
class RawResult:
    """Execution output before decoding: columnar group keys + aggregates.

    ``group_layout`` describes each key column: ``("vertex", name)``
    columns hold dictionary codes, ``("ann", ref)`` columns hold
    annotation values (codes for join-path string annotations, raw
    values on the scan path -- ``keys_are_codes`` distinguishes them).
    """

    group_layout: List[Tuple[str, str]]
    key_columns: List[np.ndarray]
    matrix: np.ndarray
    agg_ids: List[str]
    keys_are_codes: bool

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])


#: sentinel: "no memory-budget override" (None is a real value: unbounded).
_UNSET = object()


def execute_plan(
    plan: PhysicalPlan,
    stats: Optional[ExecutionStats] = None,
    tracer=None,
    cancel=None,
    memory_budget_bytes=_UNSET,
) -> RawResult:
    """Execute a physical plan of any mode.

    ``stats`` (optional) accumulates executor counters for
    EXPLAIN ANALYZE; scan and BLAS plans leave it untouched.
    ``tracer`` (optional, a :class:`repro.obs.Tracer`) records one span
    per GHD node with its scoped counters and chosen order, and under it
    the node's frontier steps and probes per trie level -- the spans a
    :class:`repro.obs.KernelProfiler` folds.  ``cancel`` (optional, a
    :class:`repro.core.governor.CancelToken`) is polled between and
    inside the node passes, so a deadline or ``cancel()`` stops the plan
    at chunk granularity.  ``memory_budget_bytes`` overrides the plan
    config's budget for this execution only (the governor passes each
    query its reserved share of the global budget without mutating the
    cached plan).
    """
    tracer = tracer or NULL_TRACER
    if cancel is not None:
        cancel.check()
    if plan.mode == "scan":
        with tracer.span("scan.execute", alias=plan.scan.alias):
            key_columns, matrix = execute_scan(plan.scan, tracer)
        layout = [("ann", g.id) for g in plan.scan.group_exprs]
        return RawResult(
            group_layout=layout,
            key_columns=key_columns,
            matrix=matrix,
            agg_ids=[a.agg_id for a in plan.scan.aggregates],
            keys_are_codes=False,
        )
    if plan.mode == "blas":
        with tracer.span("blas.execute", einsum=plan.blas.einsum_spec):
            return _execute_blas(plan)
    if plan.mode == "join":
        config = plan.config
        if memory_budget_bytes is not _UNSET:
            budget = memory_budget_bytes
            if config.memory_budget_bytes is not None and budget is not None:
                budget = min(budget, config.memory_budget_bytes)
            if budget != config.memory_budget_bytes:
                config = replace(config, memory_budget_bytes=budget)
        aggregator = _execute_node(plan.root, config, stats, tracer, cancel)
        with tracer.span("finalize"):
            key_columns, matrix = aggregator.result_arrays()
        key_columns = list(key_columns)
        with tracer.span("decode.deferred_annotations"):
            _append_deferred_annotations(plan.root, key_columns, matrix)
        return RawResult(
            group_layout=list(plan.root.group_layout),
            key_columns=key_columns,
            matrix=matrix,
            agg_ids=[a.agg_id for a in plan.root.aggregates],
            keys_are_codes=True,
        )
    raise ExecutionError(f"unknown plan mode '{plan.mode}'")


def _append_deferred_annotations(root: NodePlan, key_columns, matrix) -> None:
    """Vectorized decode of group annotations determined by output keys.

    These never needed per-tuple fetches during the walk: once the
    output's key columns exist, one batched trie lookup per annotation
    (Section III-B's annotations-reachable-from-any-level, exploited
    columnarly) resolves all rows.
    """
    if not root.deferred_fetchers:
        return
    n_rows = matrix.shape[0]
    vertex_position = {
        ref: i for i, (kind, ref) in enumerate(root.walk_layout) if kind == "vertex"
    }
    for fetcher in root.deferred_fetchers:
        if n_rows == 0:
            key_columns.append(np.empty(0))
            continue
        codes = [
            np.asarray(key_columns[vertex_position[v]], dtype=np.uint32)
            for v in fetcher.vertices
        ]
        nodes = fetcher.trie.lookup_nodes_batch(codes)
        key_columns.append(fetcher.trie.annotation(fetcher.ref_id).values[nodes])


def _execute_node(
    node: NodePlan,
    config: EngineConfig,
    stats: Optional[ExecutionStats] = None,
    tracer=NULL_TRACER,
    cancel=None,
):
    child_bindings = [
        _materialize_child(child, config, stats, tracer, cancel)
        for child in node.children
    ]
    if cancel is not None:
        cancel.check()
    with tracer.span("node.execute") as span:
        with tracer.span("node.setup"):
            executor = NodeExecutor(
                node,
                list(node.bindings) + child_bindings,
                config,
                stats=stats,
                cancel=cancel,
                tracer=tracer,
            )
        snapshot = stats.snapshot() if (tracer.active and stats is not None) else None
        aggregator = executor.run()
        if stats is not None:
            # per-node actuals for the q-error feedback loop, recorded
            # once per node
            stats.note_node_rows(node.node_key, len(aggregator))
        if tracer.active:
            span.set(
                node=node.result_slot or "root",
                attrs=list(node.attrs),
                materialized=list(node.materialized),
                relaxed=node.relaxed,
                order_cost=node.decision.cost,
                groups=len(aggregator),
                aggregator_bytes=aggregator.approx_bytes(),
            )
            if snapshot is not None:
                span.stats = stats.delta_since(snapshot)
    return aggregator


def _materialize_child(
    child: NodePlan,
    config: EngineConfig,
    stats: Optional[ExecutionStats] = None,
    tracer=NULL_TRACER,
    cancel=None,
) -> RelationBinding:
    """Run a child node and wrap its result as a trie-backed relation."""
    if not child.materialized:
        raise ExecutionError(
            "child GHD node shares no vertex with its parent (disconnected plan)"
        )
    aggregator = _execute_node(child, config, stats, tracer, cancel)
    if cancel is not None:
        cancel.check()
    with tracer.span("finalize"):
        key_columns, matrix = aggregator.result_arrays()
    with tracer.span("child.materialize", slot=child.result_slot) as span:
        arity = len(child.materialized)
        key_columns = [np.asarray(col, dtype=np.uint32) for col in key_columns]
        values = matrix[:, 0] if matrix.size else np.empty(0)
        trie = build_trie(
            key_columns,
            child.materialized,
            [AnnotationSpec(child.result_slot, values, level=arity - 1, combine="sum")],
        )
        if tracer.active:
            span.set(
                attrs=list(child.materialized),
                tuples=trie.num_tuples,
                level_bytes=[
                    int(level.flat_values.nbytes + level.offsets.nbytes)
                    for level in trie.levels
                ],
            )
    return RelationBinding(
        alias=f"__result_{child.result_slot}",
        trie=trie,
        vertices=child.materialized,
        slot_ids=(child.result_slot,),
        is_child_result=True,
    )


# ---------------------------------------------------------------------------
# dense BLAS execution (Section III-D / VI-B2)
# ---------------------------------------------------------------------------


def _execute_blas(plan: PhysicalPlan) -> RawResult:
    spec: BlasPlan = plan.blas
    compiled = plan.compiled
    operands = []
    for alias, vertices, slot_id in spec.operand_bindings:
        table = compiled.bound.tables[alias]
        key_order = table.schema.key_names
        expr = spec.slot_exprs[slot_id]
        if isinstance(expr, ColumnRef):
            request = AnnotationRequest(
                slot_id, expr.name, level=len(key_order) - 1, combine="sum"
            )
        else:
            values = np.asarray(
                evaluate(expr, lambda ref: table.columns[ref.name]), dtype=np.float64
            )
            request = AnnotationRequest(
                slot_id, str(expr), level=len(key_order) - 1, combine="sum", values=values
            )
        trie = table.get_trie(key_order, (request,))
        dims = tuple(spec.domain_sizes[v] for v in vertices)
        # Attribute elimination left the dense annotation in one flat,
        # row-major, BLAS-compatible buffer: reshape is free.
        operands.append(trie.annotation(slot_id).values.reshape(dims))

    out = blas.contract(spec.einsum_spec, operands)
    coefficient = spec.aggregates[0].terms[0][0]
    if coefficient != 1.0:
        out = out * coefficient

    # Produce the key values alongside the BLAS output annotation (the
    # paper's <2% overhead for key production).
    out_dims = [spec.domain_sizes[v] for v in spec.output_vertices]
    if out_dims:
        grids = np.meshgrid(
            *[np.arange(d, dtype=np.int64) for d in out_dims], indexing="ij"
        )
        key_columns = [g.ravel() for g in grids]
        matrix = np.asarray(out, dtype=np.float64).reshape(-1, 1)
    else:
        key_columns = []
        matrix = np.asarray([[float(out)]])
    layout = [("vertex", v) for v in spec.output_vertices]
    return RawResult(
        group_layout=layout,
        key_columns=key_columns,
        matrix=matrix,
        agg_ids=[spec.aggregates[0].agg_id],
        keys_are_codes=True,
    )
