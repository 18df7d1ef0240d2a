"""Semiring-aware merge of per-shard partial results.

Workers execute in *partial* mode: each returns decoded group-key
columns plus raw float64 aggregate partials (see
:meth:`LevelHeadedEngine._decode_partial`), with none of the result
finalization applied.  The coordinator's job is the classic
distributed-aggregation fold:

* ``SUM`` / ``COUNT`` partials **add** across shards (``AVG`` was
  already rewritten to a SUM/COUNT pair at translation time, so it
  merges for free and divides during finalization);
* ``MIN`` / ``MAX`` partials take the elementwise extremum;
* LA results *are* SUM aggregations under the (+, *) semiring --
  a matrix product's output tile is the union of per-shard tiles with
  coincident (i, j) entries summed -- so they ride the same path.

Groups are keyed by their decoded values (never shard-local dictionary
codes) and the merged table is ordered by sorted key tuples, which is
deterministic regardless of shard count or arrival order.  The caller
then applies :func:`repro.xcution.finalize.finalize_result` exactly
once -- the same code path a single-process run takes after executing
locally -- which is what makes sharded answers byte-identical.
Partials cross the wire as typed column chunks, so string keys arrive
as numpy strings; the one dtype repair left is widening a key decoded
through a worker's narrower shard-local dictionary (:func:`_decoded_dtype`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.result import ResultTable
from ..errors import ExecutionError
from ..xcution.codes import group_runs, segmented_reduce, whole_run
from ..xcution.stats import ExecutionStats

__all__ = ["MERGEABLE_FUNCS", "merge_partials", "merge_shard_stats"]

#: aggregate functions with a shard-mergeable partial form.  Anything
#: outside this set routes the query away from scatter execution.
MERGEABLE_FUNCS = frozenset({"sum", "count", "min", "max"})


def _decoded_dtype(compiled, plan, ref):
    """The dtype a *local* decode would give group-key column ``ref``.

    Partials arrive with the worker's exact dtypes, but a worker decodes
    keys through its own domain dictionary, which holds only its shard's
    values and so can be narrower than the coordinator's (``<U5`` where
    a local run's nation-name dictionary, widest value ``'GERMANY'``,
    gives ``<U7``).  The coordinator holds the very same catalog the
    plan compiled against, so it can recover the local dtype exactly;
    ``None`` when ``ref`` has no dictionary (plain numeric keys keep
    their wire dtype).
    """
    bound = compiled.bound
    try:
        vertex = bound.vertex(ref)
    except KeyError:
        vertex = None
    if vertex is not None:
        alias, attr_name = vertex.members[0]
        dictionary = bound.tables[alias]._domain_dictionary(attr_name)
        return None if dictionary._is_identity else dictionary.values.dtype
    if plan is not None and plan.root is not None:
        for fetcher in plan.root.group_fetchers + plan.root.deferred_fetchers:
            if fetcher.ref_id == ref and fetcher.dictionary is not None:
                return fetcher.dictionary.values.dtype
    return None


def merge_partials(
    compiled, partials: List[ResultTable], plan=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
    """Fold per-shard partial tables into one final aggregate state.

    Returns ``(key_env, agg_columns, n_rows)`` in exactly the shape
    :meth:`LevelHeadedEngine._decode_env` produces locally, ready for
    :func:`~repro.xcution.finalize.finalize_result`.  ``plan`` (the
    coordinator's compiled physical plan) lets string key columns be
    rebuilt with their dictionary's native dtype -- see
    :func:`_decoded_dtype`.
    """
    funcs = {a.id: a.func for a in compiled.aggregates}
    tables = [p for p in partials if p is not None]
    if not tables:
        raise ExecutionError("shard merge received no partial results")
    names = tables[0].names
    for other in tables[1:]:
        if other.names != names:
            raise ExecutionError(
                f"shard partials disagree on layout: {other.names} vs {names}"
            )
    key_names = [n for n in names if n not in funcs]
    agg_names = [n for n in names if n in funcs]

    def merged(name):
        return np.concatenate([np.asarray(table.columns[name]) for table in tables])

    # one group per distinct decoded key tuple, in sorted tuple order;
    # a group's partials fold in shard (arrival) order
    key_columns = [merged(name) for name in key_names]
    if key_columns:
        order, starts = group_runs(key_columns)
    else:
        order, starts = whole_run(sum(table.num_rows for table in tables))
    matrix = segmented_reduce(
        [funcs[name] for name in agg_names],
        [merged(name).astype(np.float64, copy=False) for name in agg_names],
        order,
        starts,
    )

    first = None if order is None else order[starts]
    key_env: Dict[str, np.ndarray] = {}
    for name, column in zip(key_names, key_columns):
        # rebuild with the dictionary's dtype like a local decode does
        dtype = _decoded_dtype(compiled, plan, name)
        values = column[first]
        key_env[name] = values if dtype is None else values.astype(dtype, copy=False)
    agg_columns: Dict[str, np.ndarray] = {
        name: np.ascontiguousarray(matrix[:, j]) for j, name in enumerate(agg_names)
    }
    return key_env, agg_columns, int(starts.size)


#: per-shard counters that must NOT sum into the coordinator's stats:
#: each worker runs its own plan cache, but the caller sees exactly one
#: compile -- the coordinator's -- so only its outcome may count.
_LOCAL_ONLY_FIELDS = (
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_invalidations",
    "plan_reoptimizations",
)


def merge_shard_stats(
    merged: ExecutionStats, shard_stats: List[Optional[ExecutionStats]]
) -> ExecutionStats:
    """Fold worker ExecutionStats into ``merged`` (coordinator's), in order.

    Counter fields sum, q-error fields take the max, per-node row maps
    add up -- :meth:`ExecutionStats.merge` semantics -- except the
    plan-cache outcome counters, which are stripped: the coordinator
    compiled (or cache-hit) the plan exactly once and already noted it.
    """
    for stats in shard_stats:
        if stats is None:
            continue
        cleaned = ExecutionStats.from_dict(
            {
                k: v
                for k, v in stats.as_dict().items()
                if k not in _LOCAL_ONLY_FIELDS
            }
        )
        merged.merge(cleaned)
    return merged
