"""The q-error feedback loop: measure estimate error, re-rank bad plans.

The optimizer plans every GHD node on *estimates* -- the icost x
weight order score and the output-row estimate in
:class:`~repro.optimizer.cardinality.RowEstimate` -- but estimates
built from independence and containment assumptions are exactly wrong
on skewed data.  This module closes the loop
(ROADMAP's "Feedback-driven optimizer"):

* after each execution, the engine pairs every plan node's
  ``est_rows`` with the rows the node actually produced
  (``ExecutionStats.node_rows``, keyed by ``NodePlan.node_key``) and
  computes the **q-error** ``max(est/act, act/est)`` per node
  (:func:`q_error`, :func:`measure`);
* each plan-cache entry carries a :class:`PlanFeedback` record; when
  the observed per-query q-error exceeds ``threshold`` for
  ``drift_runs`` *consecutive* runs the entry is marked **drifted**
  (:meth:`PlanFeedback.record`), exactly parallel to the catalog
  ``domain_version`` invalidation path;
* the next lookup of a drifted entry recompiles with
  **feedback-corrected cardinalities**: the observed per-node actuals
  (:meth:`PlanFeedback.corrections`) override the catalog /
  independence estimates during attribute-order search (child
  pseudo-edge cardinalities feed the relation-score weights) and the
  node's ``est_rows`` is pinned to the observation.

Thresholds follow the q-error literature's convention that factor-of-k
misestimates under ~4 rarely change plan choice, while persistent
larger errors do; one bad run is noise, ``DRIFT_CONSECUTIVE_RUNS``
consecutive bad runs is a lying statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: a cached plan drifts when its per-query q-error exceeds this.
Q_ERROR_DRIFT_THRESHOLD = 4.0

#: ... for this many consecutive runs (one bad run is noise).
DRIFT_CONSECUTIVE_RUNS = 3


def q_error(est_rows: float, actual_rows: float) -> float:
    """The symmetric relative estimate error ``max(est/act, act/est)``.

    Both sides are floored at one row: an estimate of 0 against an
    actual of 0 is a perfect prediction (q-error 1.0), not a 0/0.
    """
    est = max(float(est_rows), 1.0)
    act = max(float(actual_rows), 1.0)
    return max(est / act, act / est)


@dataclass(frozen=True)
class NodeFeedback:
    """One plan node's estimated vs. actual output cardinality."""

    node_key: str
    est_rows: float
    actual_rows: int
    q_error: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "node_key": self.node_key,
            "est_rows": float(self.est_rows),
            "actual_rows": int(self.actual_rows),
            "q_error": float(self.q_error),
        }


@dataclass(frozen=True)
class QueryFeedback:
    """Per-node and per-query q-error of one plan execution."""

    nodes: Tuple[NodeFeedback, ...]
    q_error_max: float
    q_error_root: float

    def node(self, node_key: str) -> Optional[NodeFeedback]:
        for nf in self.nodes:
            if nf.node_key == node_key:
                return nf
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "q_error_max": float(self.q_error_max),
            "q_error_root": float(self.q_error_root),
            "nodes": [nf.as_dict() for nf in self.nodes],
        }


def measure(plan, node_rows: Mapping[str, int]) -> Optional[QueryFeedback]:
    """Pair a join plan's per-node estimates with observed row counts.

    ``plan`` is a :class:`~repro.xcution.plan.PhysicalPlan` (duck-typed
    to avoid a core->optimizer->xcution import cycle); ``node_rows`` is
    ``ExecutionStats.node_rows``.  Returns None when nothing matched
    (scan/BLAS plans, or stats collected without node recording).
    """
    root = getattr(plan, "root", None)
    if root is None or not node_rows:
        return None
    nodes = []
    root_q = 1.0
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        actual = node_rows.get(node.node_key)
        if actual is None:
            continue
        est_rows = node.estimate.est_rows
        qe = q_error(est_rows, actual)
        nodes.append(NodeFeedback(node.node_key, float(est_rows), int(actual), qe))
        if node is root:
            root_q = qe
    if not nodes:
        return None
    return QueryFeedback(
        nodes=tuple(sorted(nodes, key=lambda nf: nf.node_key)),
        q_error_max=max(nf.q_error for nf in nodes),
        q_error_root=root_q,
    )


@dataclass
class PlanFeedback:
    """The drift record attached to one plan-cache entry.

    ``record`` is called after every execution of the cached plan;
    ``corrections`` hands the accumulated observations to the next
    (feedback-driven) recompile.  A drifted record is *sticky*: the
    cache drops the entry on next lookup and seeds the replacement via
    :meth:`successor`.
    """

    threshold: float = Q_ERROR_DRIFT_THRESHOLD
    drift_runs: int = DRIFT_CONSECUTIVE_RUNS
    #: total executions this entry's feedback has seen.
    runs: int = 0
    #: current run of consecutive above-threshold executions.
    bad_streak: int = 0
    #: whether the drift rule has fired (re-optimize on next lookup).
    drifted: bool = False
    #: how many feedback-driven recompiles produced this entry's plan.
    reoptimized: int = 0
    #: the most recent execution's measurement.
    last: Optional[QueryFeedback] = None
    #: latest observed actual rows per node_key (the corrections).
    observed_rows: Dict[str, int] = field(default_factory=dict)

    def record(self, measured: QueryFeedback) -> bool:
        """Fold one execution's measurement in; True when newly drifted."""
        self.runs += 1
        self.last = measured
        for nf in measured.nodes:
            self.observed_rows[nf.node_key] = nf.actual_rows
        if self.drifted:
            return False
        if measured.q_error_max > self.threshold:
            self.bad_streak += 1
        else:
            self.bad_streak = 0
        if self.bad_streak >= self.drift_runs:
            self.drifted = True
            return True
        return False

    def corrections(self) -> Dict[str, int]:
        """Observed per-node actual rows, keyed by ``NodePlan.node_key``."""
        return dict(self.observed_rows)

    def successor(self) -> "PlanFeedback":
        """The feedback record for the re-optimized replacement plan.

        Observations carry over (the data did not change, only the
        plan), the drift state resets, and the reoptimization count
        increments -- a replacement that *still* drifts is visible.
        """
        return PlanFeedback(
            threshold=self.threshold,
            drift_runs=self.drift_runs,
            reoptimized=self.reoptimized + 1,
            observed_rows=dict(self.observed_rows),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "drift_runs": self.drift_runs,
            "runs": self.runs,
            "bad_streak": self.bad_streak,
            "drifted": self.drifted,
            "reoptimized": self.reoptimized,
            "observed_nodes": len(self.observed_rows),
            "q_error_max": (
                float(self.last.q_error_max) if self.last is not None else None
            ),
            "q_error_root": (
                float(self.last.q_error_root) if self.last is not None else None
            ),
        }
