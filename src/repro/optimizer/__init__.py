"""The cost-based WCOJ optimizer (Section V).

The first cost-based optimizer for generic worst-case optimal join
attribute ordering: per-vertex intersection costs (icost, from the
layout guesses of Observation 5.1) weighted by relation cardinality
scores (Observation 5.2's heaviest-first rule), with the Section V-A2
relaxation of the materialized-attributes-first constraint.
"""

from .attribute_order import OrderDecision, candidate_orders, choose_order, order_cost
from .feedback import (
    DRIFT_CONSECUTIVE_RUNS,
    Q_ERROR_DRIFT_THRESHOLD,
    NodeFeedback,
    PlanFeedback,
    QueryFeedback,
    measure,
    q_error,
)
from .cardinality import (
    EdgeStats,
    RowEstimate,
    estimate_node,
    estimate_output_rows,
    pairwise_plan,
)
from .icost import (
    ICOST,
    guess_layouts,
    multiway_icost,
    pairwise_icost,
    result_layout,
    vertex_icost,
)
from .weights import relation_scores, vertex_weight, vertex_weights

__all__ = [
    "ICOST",
    "pairwise_icost",
    "multiway_icost",
    "result_layout",
    "guess_layouts",
    "vertex_icost",
    "relation_scores",
    "vertex_weight",
    "vertex_weights",
    "OrderDecision",
    "candidate_orders",
    "choose_order",
    "order_cost",
    "EdgeStats",
    "RowEstimate",
    "estimate_node",
    "estimate_output_rows",
    "pairwise_plan",
    "DRIFT_CONSECUTIVE_RUNS",
    "Q_ERROR_DRIFT_THRESHOLD",
    "NodeFeedback",
    "PlanFeedback",
    "QueryFeedback",
    "measure",
    "q_error",
]
