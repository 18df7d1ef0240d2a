"""Per-node execution-strategy scoring: WCOJ vs pairwise hash joins.

LevelHeaded's generic join wins where the AGM bound pays off (cyclic
fragments, many-to-many LA shapes) but loses to Selinger-planned
pairwise hash joins on sparse, selective, acyclic fragments -- the
TPC-H-shaped parts of a plan.  Free Join (arXiv 2301.10841) shows the
two are points on one continuum; this module picks a point per GHD
node.

Every join node is scored twice:

* ``wcoj_cost`` -- the icost x weight structural estimate the attribute
  -order search already produced (:class:`OrderDecision.cost`);
* ``binary_cost`` -- a textbook System-R estimate of the total
  intermediate cardinality of the best left-deep pairwise plan over the
  node's relations (independence + containment of value sets, the same
  arithmetic as ``repro.baselines.pairwise.planner``).

The ``auto`` decision rule (documented in docs/hybrid.md):

1. fragments whose total input is **small** (< ``MIN_BINARY_INPUT_ROWS``
   rows) run WCOJ -- vectorized hash-join setup cost dominates tiny
   inputs, and the generic join is already cheap there;
2. otherwise the fragment runs **binary** iff the estimated sum of
   pairwise intermediates does not exceed a factor times the input the
   trie build would have to scan anyway
   (``binary_cost <= factor * input_rows``) -- i.e. hash joins are
   chosen exactly when selectivity keeps intermediates from blowing up
   past the input.  The factor is ``BINARY_COST_FACTOR`` for acyclic
   fragments; **cyclic** fragments (GYO reduction does not empty the
   hypergraph) lose the AGM guarantee under pairwise plans and their
   independence-based estimates are least trustworthy, so they demand
   the stricter ``CYCLIC_BINARY_COST_FACTOR`` margin.  That keeps
   triangle counting on WCOJ (its intermediates exceed the input) while
   letting TPC-H Q5's cyclic-but-selective core run pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

#: below this many total input rows a fragment always runs WCOJ under
#: ``auto``: per-join vectorization overhead dominates tiny inputs.
MIN_BINARY_INPUT_ROWS = 2048

#: ``auto`` picks binary iff binary_cost <= factor * input_rows.
BINARY_COST_FACTOR = 1.0

#: stricter margin demanded of cyclic fragments before they may leave
#: the AGM-bounded generic join for a pairwise plan.
CYCLIC_BINARY_COST_FACTOR = 0.25

#: schema version of the per-node ``strategy`` block in
#: ``engine.explain(format="json")``.  v2 added ``est_rows`` (the
#: optimizer's output-cardinality estimate, the quantity the q-error
#: feedback loop scores) and ``corrected`` (whether that estimate was
#: overridden by an observed actual from a drifted cache entry).
STRATEGY_SCHEMA_VERSION = 2

#: accepted values of ``EngineConfig.join_strategy``.
JOIN_STRATEGIES = ("auto", "wcoj", "binary")


@dataclass(frozen=True)
class EdgeStats:
    """Cardinality statistics of one relation occurrence in a node."""

    alias: str
    vertices: Tuple[str, ...]
    cardinality: float
    #: per-vertex distinct value counts (capped at ``cardinality``).
    distinct: Dict[str, float]


@dataclass(frozen=True)
class StrategyDecision:
    """The optimizer's per-node engine choice plus both estimates."""

    choice: str  # "wcoj" | "binary"
    wcoj_cost: float  # icost x weight structural estimate
    binary_cost: float  # estimated sum of pairwise intermediate rows
    input_rows: float  # total input cardinality of the fragment
    cyclic: bool
    eligible: bool  # whether binary execution was even considered
    reason: str
    #: estimated output rows (groups) of the fragment -- what the
    #: q-error feedback loop compares against the executed actuals.
    est_rows: float = 1.0
    #: True when ``est_rows`` came from an observed actual (a drifted
    #: plan's feedback-corrected recompile), not the catalog statistics.
    corrected: bool = False

    def as_dict(self) -> Dict:
        """The versioned JSON form pinned by the explain golden test."""
        return {
            "version": STRATEGY_SCHEMA_VERSION,
            "choice": self.choice,
            "wcoj_cost": float(self.wcoj_cost),
            "binary_cost": float(self.binary_cost),
            "input_rows": float(self.input_rows),
            "cyclic": self.cyclic,
            "eligible": self.eligible,
            "reason": self.reason,
            "est_rows": float(self.est_rows),
            "corrected": self.corrected,
        }


def is_acyclic(vertex_sets: Sequence[Sequence[str]]) -> bool:
    """GYO reduction: True iff the edge multiset is alpha-acyclic."""
    edges: List[set] = [set(e) for e in vertex_sets if e]
    if len(edges) <= 1:
        return True
    changed = True
    while changed and len(edges) > 1:
        changed = False
        counts: Dict[str, int] = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        stripped = []
        for e in edges:
            kept = {v for v in e if counts[v] > 1}
            if kept != e:
                changed = True
            if kept:
                stripped.append(kept)
            else:
                changed = True
        edges = stripped
        for i, e in enumerate(edges):
            if any(i != j and e <= f for j, f in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
    return len(edges) <= 1


def pairwise_plan(edges: Sequence[EdgeStats]) -> Tuple[float, float]:
    """Best left-deep pairwise plan: ``(cost, output_rows)``.

    The same System-R dynamic program as the pairwise baseline's
    Selinger planner: independence across join predicates, containment
    of value sets per key (divide by the larger distinct count).
    ``cost`` is the sum of intermediate rows (what ``auto`` compares
    against the input); ``output_rows`` is the final joined
    cardinality -- the raw material of the feedback loop's ``est_rows``.
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


def pairwise_cost(edges: Sequence[EdgeStats]) -> float:
    """Best left-deep pairwise plan cost: sum of intermediate rows."""
    return pairwise_plan(edges)[0]


def estimate_output_rows(
    edges: Sequence[EdgeStats],
    materialized: Sequence[str] = (),
    joined_rows: Optional[float] = None,
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
    if joined_rows is None:
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


def decide_strategy(
    mode: str,
    edges: Sequence[EdgeStats],
    wcoj_cost: float,
    eligible: bool = True,
    ineligible_reason: str = "",
    materialized: Sequence[str] = (),
    observed_rows: Optional[float] = None,
) -> StrategyDecision:
    """Pick the execution engine for one GHD node.

    ``mode`` is the configured ``join_strategy``; ``edges`` carries the
    node's relation statistics (base relations with post-filter
    cardinalities plus child-result pseudo-edges); ``wcoj_cost`` is the
    attribute-order search's chosen cost.  ``eligible=False`` (with a
    reason) pins the node to WCOJ regardless of mode -- used for the
    ablation configs whose experiments compare WCOJ internals.
    ``materialized`` names the vertices the node emits (its output-row
    estimate is capped by their distinct counts); ``observed_rows``
    pins ``est_rows`` to an actual observed by the q-error feedback
    loop on a drifted cached plan.
    """
    input_rows = float(sum(e.cardinality for e in edges))
    cyclic = not is_acyclic([e.vertices for e in edges])
    binary_cost, joined_rows = pairwise_plan(edges)
    est_rows = estimate_output_rows(edges, materialized, joined_rows)
    corrected = observed_rows is not None
    if corrected:
        est_rows = max(1.0, float(observed_rows))

    def pick(choice: str, reason: str) -> StrategyDecision:
        return StrategyDecision(
            choice=choice,
            wcoj_cost=float(wcoj_cost),
            binary_cost=float(binary_cost),
            input_rows=input_rows,
            cyclic=cyclic,
            eligible=eligible,
            reason=reason,
            est_rows=est_rows,
            corrected=corrected,
        )

    if mode not in JOIN_STRATEGIES:
        raise ValueError(
            f"unknown join_strategy {mode!r} (expected one of {JOIN_STRATEGIES})"
        )
    if not eligible:
        return pick("wcoj", ineligible_reason or "fragment ineligible for binary")
    if mode == "wcoj":
        return pick("wcoj", "join_strategy=wcoj pins the generic join")
    if mode == "binary":
        return pick("binary", "join_strategy=binary pins pairwise hash joins")
    # auto
    if input_rows < MIN_BINARY_INPUT_ROWS:
        return pick(
            "wcoj",
            f"small input ({int(input_rows)} rows "
            f"< {MIN_BINARY_INPUT_ROWS}): hash-join setup dominates",
        )
    factor = CYCLIC_BINARY_COST_FACTOR if cyclic else BINARY_COST_FACTOR
    if binary_cost <= factor * input_rows:
        shape = "cyclic-but-selective" if cyclic else "acyclic"
        return pick(
            "binary",
            f"{shape} fragment: estimated pairwise intermediates "
            f"({binary_cost:.0f}) fit within {factor:g}x the input "
            f"({input_rows:.0f})",
        )
    if cyclic:
        return pick("wcoj", "cyclic fragment: the AGM bound pays off")
    return pick(
        "wcoj",
        f"pairwise intermediates blow up ({binary_cost:.0f} rows "
        f"> {BINARY_COST_FACTOR:g}x input {input_rows:.0f})",
    )
