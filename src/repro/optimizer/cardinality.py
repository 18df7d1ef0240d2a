"""Per-node output-cardinality estimates: what the q-error loop scores.

Every GHD node gets an estimate of the rows (groups) it emits, built
from catalog statistics with the textbook System-R assumptions: a
left-deep pairwise dynamic program over the node's relations
(independence + containment of value sets, the same arithmetic as
``repro.baselines.pairwise.planner``) estimates the joined cardinality,
which is then capped by the distinct count of the node's materialized
vertices.  The feedback loop (:mod:`repro.optimizer.feedback`) compares
that estimate with the rows the node actually produced and, on drift,
pins it to the observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class EdgeStats:
    """Cardinality statistics of one relation occurrence in a node."""

    alias: str
    vertices: Tuple[str, ...]
    cardinality: float
    #: per-vertex distinct value counts (capped at ``cardinality``).
    distinct: Dict[str, float]


@dataclass(frozen=True)
class RowEstimate:
    """One node's estimated output rows, as the q-error loop scores it."""

    #: estimated output rows (groups) of the fragment.
    est_rows: float = 1.0
    #: True when ``est_rows`` came from an observed actual (a drifted
    #: plan's feedback-corrected recompile), not the catalog statistics.
    corrected: bool = False


def pairwise_plan(edges: Sequence[EdgeStats]) -> Tuple[float, float]:
    """Best left-deep pairwise plan: ``(cost, output_rows)``.

    The same System-R dynamic program as the pairwise baseline's
    Selinger planner: independence across join predicates, containment
    of value sets per key (divide by the larger distinct count).
    ``cost`` is the sum of intermediate rows (the plan the DP keeps);
    ``output_rows`` is the final joined cardinality -- the raw material
    of :func:`estimate_output_rows`.
    """
    n = len(edges)
    if n == 0:
        return 0.0, 1.0
    if n == 1:
        return 0.0, float(max(edges[0].cardinality, 1.0))
    by_alias = {e.alias: e for e in edges}
    members: Dict[str, List[str]] = {}
    for e in edges:
        for v in e.vertices:
            members.setdefault(v, []).append(e.alias)

    def join_vertices(subset: FrozenSet[str], alias: str) -> List[str]:
        out = []
        for vertex, aliases in members.items():
            if alias in aliases and any(m in subset for m in aliases if m != alias):
                out.append(vertex)
        return out

    def estimate(card: float, subset: FrozenSet[str], alias: str) -> float:
        est = card * by_alias[alias].cardinality
        for vertex in join_vertices(subset, alias):
            dv_new = by_alias[alias].distinct.get(vertex, 1.0)
            dv_old = min(
                by_alias[m].distinct.get(vertex, 1.0)
                for m in members[vertex]
                if m in subset
            )
            est /= max(1.0, max(dv_new, dv_old))
        return est

    best: Dict[FrozenSet[str], Tuple[float, float]] = {
        frozenset([e.alias]): (0.0, float(e.cardinality)) for e in edges
    }
    aliases = [e.alias for e in edges]
    for size in range(2, n + 1):
        grown: Dict[FrozenSet[str], Tuple[float, float]] = {}
        for subset, (cost, card) in best.items():
            if len(subset) != size - 1:
                continue
            extensions = [a for a in aliases if a not in subset]
            connected = [a for a in extensions if join_vertices(subset, a)]
            for alias in connected or extensions:
                new_subset = subset | {alias}
                new_card = estimate(card, subset, alias)
                new_cost = cost + new_card
                current = grown.get(new_subset)
                if current is None or new_cost < current[0]:
                    grown[new_subset] = (new_cost, new_card)
        best.update(grown)
    full = frozenset(aliases)
    if full not in best:
        return float("inf"), float("inf")
    cost, card = best[full]
    return cost, max(card, 1.0)


def estimate_output_rows(
    edges: Sequence[EdgeStats], materialized: Sequence[str] = ()
) -> float:
    """Estimate the rows (groups) a fragment emits after aggregation.

    A GHD node joins its relations and aggregates down to its
    ``materialized`` vertices, so the node's output cardinality is the
    joined cardinality capped by the number of distinct materialized
    tuples -- estimated (independence again) as the product over
    materialized vertices of the smallest per-edge distinct count.  A
    fully aggregated fragment (grand aggregate) emits one group.
    """
    if not materialized:
        return 1.0
    joined_rows = pairwise_plan(edges)[1]
    cap = 1.0
    for vertex in materialized:
        distinct = [
            e.distinct.get(vertex, e.cardinality)
            for e in edges
            if vertex in e.vertices
        ]
        if distinct:
            cap *= max(1.0, min(distinct))
    return max(1.0, min(float(joined_rows), cap))


def estimate_node(
    edges: Sequence[EdgeStats],
    materialized: Sequence[str] = (),
    observed_rows: Optional[float] = None,
) -> RowEstimate:
    """The output-row estimate of one GHD node.

    ``edges`` carries the node's relation statistics (base relations
    with post-filter cardinalities plus child-result pseudo-edges);
    ``materialized`` names the vertices the node emits;
    ``observed_rows`` pins the estimate to an actual observed by the
    q-error feedback loop on a drifted cached plan.
    """
    if observed_rows is not None:
        return RowEstimate(max(1.0, float(observed_rows)), corrected=True)
    return RowEstimate(estimate_output_rows(edges, materialized))
