"""The AGM bound and fractional edge covers (Section II-A and II-B).

The AGM bound upper-bounds a join's output size by
``prod_e |R_e| ** x_e`` where ``x`` is a fractional edge cover of the
query hypergraph.  The same linear program, run with a unit objective,
yields the fractional edge cover *number* used as a GHD node's width.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..errors import PlanningError
from .hypergraph import Hyperedge, Hypergraph

# distinct bag shapes whose widths stay memoized; a TPC-H compile
# touches a dozen or so, so this covers every shape a workload reuses
WIDTH_CACHE_SIZE = 4096


def fractional_cover(
    vertices: Sequence[str],
    edges: Sequence[Hyperedge],
    log_weights: Optional[Sequence[float]] = None,
) -> Tuple[float, Dict[str, float]]:
    """Solve ``min sum_e w_e * x_e`` s.t. every vertex is covered.

    With unit weights the objective value is the fractional edge cover
    number (a GHD node's width); with ``log_weights = log |R_e|`` it is
    the exponent of the AGM bound.  Vertices not touched by any edge
    make the program infeasible and raise :class:`PlanningError`.
    """
    vertex_list = list(vertices)
    edge_list = list(edges)
    if not vertex_list:
        return 0.0, {}
    if not edge_list:
        raise PlanningError("no edges to cover vertices with")
    weights = list(log_weights) if log_weights is not None else [1.0] * len(edge_list)

    # linprog minimizes c @ x with A_ub @ x <= b_ub; coverage constraints
    # sum_{e ∋ v} x_e >= 1 become -sum x_e <= -1.
    a_ub = np.zeros((len(vertex_list), len(edge_list)))
    for j, edge in enumerate(edge_list):
        for i, vertex in enumerate(vertex_list):
            if vertex in edge.vertex_set:
                a_ub[i, j] = -1.0
    b_ub = -np.ones(len(vertex_list))
    result = linprog(
        c=np.asarray(weights, dtype=float),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * len(edge_list),
        method="highs",
    )
    if not result.success:
        raise PlanningError(
            f"fractional cover infeasible over vertices {vertex_list} "
            f"with edges {[str(e) for e in edge_list]}"
        )
    cover = {edge.alias: float(x) for edge, x in zip(edge_list, result.x)}
    return float(result.fun), cover


def fractional_cover_number(vertices: Sequence[str], edges: Sequence[Hyperedge]) -> float:
    """The width contribution of one GHD bag (unit-weight LP value).

    The unit-weight LP depends only on which vertex sets the edges have,
    so the value is memoized per bag shape for the whole process: the
    key drops aliases, relations, cardinalities and duplicate shapes
    (a self-join's second copy adds a column identical to the first,
    which leaves the optimum unchanged).
    """
    shapes = frozenset(e.vertex_set for e in edges)
    return _cover_number_of_shape(frozenset(vertices), shapes)


@functools.lru_cache(maxsize=WIDTH_CACHE_SIZE)
def _cover_number_of_shape(
    bag: FrozenSet[str], shapes: FrozenSet[FrozenSet[str]]
) -> float:
    # solved once per key in a canonical order, so the cached value does
    # not depend on which query's edge order filled it
    edges = [
        Hyperedge(f"e{i}", "", vertices)
        for i, vertices in enumerate(sorted(tuple(sorted(s)) for s in shapes))
    ]
    value, _ = fractional_cover(sorted(bag), edges)
    return value


def agm_bound(hypergraph: Hypergraph, cardinalities: Optional[Dict[str, int]] = None) -> float:
    """The AGM output-size bound ``prod_e |R_e| ** x_e`` for the query.

    ``cardinalities`` overrides the edge cardinalities (alias -> rows);
    edges with zero/unknown cardinality contribute as cardinality 1.
    """
    sizes = {}
    for edge in hypergraph.edges:
        rows = edge.cardinality
        if cardinalities is not None and edge.alias in cardinalities:
            rows = cardinalities[edge.alias]
        sizes[edge.alias] = max(1, int(rows))
    log_weights = [math.log(sizes[e.alias]) for e in hypergraph.edges]
    log_bound, _ = fractional_cover(hypergraph.vertices, hypergraph.edges, log_weights)
    return math.exp(log_bound)
