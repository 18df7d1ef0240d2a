"""Pairwise hash/merge-join execution over columnar frames.

The hybrid optimizer (:mod:`repro.optimizer.strategy`) sends acyclic,
selective GHD nodes here instead of the generic WCOJ executor: on
TPC-H-shaped fragments a Selinger-ordered sequence of vectorized binary
joins skips the trie builds and per-attribute steps a generic join
pays, exactly the trade-off Free Join (arXiv 2301.10841) formalizes.

A :class:`RelationFrame` is the binary engine's input: the *raw
filtered rows* of one relation occurrence, with key columns holding the
same dictionary codes a trie build would produce (both come from
``Table.trie_inputs``) and slot columns holding raw per-row annotation
values.  No deduplication and no ``__mult_`` counting happens --
multiplicity is physical in the rows, so aggregate terms simply skip
the implicit count slots (summing raw per-row products equals summing
trie-pre-aggregated products, because the join condition depends only
on keys; min/max are idempotent, so duplicate rows are harmless).

Joins and group-by run on the dense-code kernels of
:mod:`repro.xcution.codes`.  A join key is the shared vertices' codes
packed mixed-radix by their domain sizes (frames carry the sizes
``Table.trie_inputs`` reports); the probe is a direct-address table when
the joined-in frame is unique on the key (every FK->PK join), a
counting-sort CSR when it is not, and a sort-merge only when the packed
key space is too sparse for a table.  Group-by reduction packs the
output vertices' codes (and fetched annotation codes) the same way,
radix-orders the rows and runs one ``reduceat`` per aggregate.  The
whole node runs single-threaded through vectorized kernels, so its
counters (``binary_joins``, ``binary_rows``) are parallel-invariant by
construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError, OutOfMemoryBudgetError
from .codes import (
    group_runs,
    join_indices,
    kernel_seconds,
    pack,
    row_values,
    segmented_reduce,
    whole_run,
)


@dataclass
class RelationFrame:
    """Raw filtered rows of one relation occurrence, dictionary-coded."""

    alias: str
    vertices: Tuple[str, ...]
    #: parallel to ``vertices``; uint32 dictionary codes.
    key_columns: List[np.ndarray]
    #: parallel to ``vertices``: size of each vertex's code domain; empty
    #: when unknown (child-result frames).
    domain_sizes: Tuple[int, ...] = ()
    #: slot id -> raw per-row values (already string-encoded).
    slot_columns: Dict[str, np.ndarray] = field(default_factory=dict)
    #: decode dictionaries for string-valued slots (parity with tries).
    slot_dictionaries: Dict[str, object] = field(default_factory=dict)
    #: slot ids represented implicitly by row duplication (``count``
    #: combines, i.e. the ``__mult_<alias>`` multiplicities).
    implicit_mult: FrozenSet[str] = frozenset()

    @property
    def num_rows(self) -> int:
        return int(self.key_columns[0].size) if self.key_columns else 0

    def approx_bytes(self) -> int:
        total = sum(c.nbytes for c in self.key_columns)
        total += sum(np.asarray(c).nbytes for c in self.slot_columns.values())
        return total


def build_frame(
    table,
    vertices: Tuple[str, ...],
    key_order: Tuple[str, ...],
    requests: Sequence,
    row_mask: Optional[np.ndarray],
) -> RelationFrame:
    """Build a frame through the same encoding path as a trie build."""
    key_columns, domain_sizes, specs = table.trie_inputs(key_order, requests, row_mask)
    slot_columns: Dict[str, np.ndarray] = {}
    slot_dictionaries: Dict[str, object] = {}
    implicit = set()
    for spec in specs:
        if spec.combine == "count" or spec.values is None:
            implicit.add(spec.name)
            continue
        slot_columns[spec.name] = np.asarray(spec.values)
        if spec.dictionary is not None:
            slot_dictionaries[spec.name] = spec.dictionary
    return RelationFrame(
        alias=table.name,
        vertices=tuple(vertices),
        key_columns=[np.asarray(c) for c in key_columns],
        domain_sizes=tuple(domain_sizes),
        slot_columns=slot_columns,
        slot_dictionaries=slot_dictionaries,
        implicit_mult=frozenset(implicit),
    )


class BinaryNodeResult:
    """Grouped output of a binary node; duck-types ``GroupAggregator``."""

    spills = 0

    def __init__(self, key_columns: List[np.ndarray], matrix: np.ndarray):
        self._key_columns = key_columns
        self._matrix = matrix

    def result_arrays(self) -> Tuple[List[np.ndarray], np.ndarray]:
        return self._key_columns, self._matrix

    def __len__(self) -> int:
        return int(self._matrix.shape[0])

    def approx_bytes(self) -> int:
        return sum(c.nbytes for c in self._key_columns) + self._matrix.nbytes


# ---------------------------------------------------------------------------
# join kernels
# ---------------------------------------------------------------------------


def _composite_keys(
    left_cols: List[np.ndarray], right_cols: List[np.ndarray], sizes: List[int]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pack parallel multi-column keys; returns ``(lkey, rkey, domain)``.

    One column joins on its codes as they are; more are packed
    mixed-radix by domain size, both sides together so a dense re-encode
    (domain product past 62 bits) stays consistent across them.
    """
    if len(sizes) == 1:
        return left_cols[0], right_cols[0], sizes[0]
    n_left = left_cols[0].size
    key, domain = pack(
        [np.concatenate(pair) for pair in zip(left_cols, right_cols)], sizes
    )
    return key[:n_left], key[n_left:], domain


class _Assembled:
    """The growing joined intermediate: one column per vertex and slot."""

    def __init__(self, frame: RelationFrame):
        self.vertex_columns: Dict[str, np.ndarray] = {
            v: col for v, col in zip(frame.vertices, frame.key_columns)
        }
        self.domain_sizes: Dict[str, int] = dict(
            zip(frame.vertices, frame.domain_sizes)
        )
        self.slot_columns: Dict[str, np.ndarray] = dict(frame.slot_columns)
        self.implicit_mult = set(frame.implicit_mult)
        self.num_rows = frame.num_rows

    def approx_bytes(self) -> int:
        total = sum(c.nbytes for c in self.vertex_columns.values())
        total += sum(c.nbytes for c in self.slot_columns.values())
        return total

    def join(self, frame: RelationFrame, shared: List[str]) -> int:
        """Equi-join ``frame`` in on ``shared`` vertices; returns rows out."""
        for v, size in zip(frame.vertices, frame.domain_sizes):
            self.domain_sizes.setdefault(v, size)
        if shared:
            left_cols = [self.vertex_columns[v] for v in shared]
            right_cols = [frame.key_columns[frame.vertices.index(v)] for v in shared]
            sizes = [
                # two child results meeting on a vertex: neither knows
                # the domain, the codes themselves bound it
                self.domain_sizes.get(v) or int(max(lc.max(), rc.max())) + 1
                for v, lc, rc in zip(shared, left_cols, right_cols)
            ]
            left_idx, right_idx = join_indices(
                *_composite_keys(left_cols, right_cols, sizes)
            )
        else:  # disconnected fragment: cross product
            n_left, n_right = self.num_rows, frame.num_rows
            left_idx = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
            right_idx = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        self.vertex_columns = {
            v: col[left_idx] for v, col in self.vertex_columns.items()
        }
        self.slot_columns = {
            s: col[left_idx] for s, col in self.slot_columns.items()
        }
        for v, col in zip(frame.vertices, frame.key_columns):
            if v not in self.vertex_columns:
                self.vertex_columns[v] = col[right_idx]
        for s, col in frame.slot_columns.items():
            self.slot_columns[s] = col[right_idx]
        self.implicit_mult |= frame.implicit_mult
        self.num_rows = int(left_idx.size)
        return self.num_rows


# ---------------------------------------------------------------------------
# node execution
# ---------------------------------------------------------------------------


def execute_binary_node(
    node,
    frames: List[RelationFrame],
    config,
    stats=None,
    tracer=None,
    profiler=None,
    cancel=None,
) -> BinaryNodeResult:
    """Run one binary-strategy GHD node: join, fetch, group, reduce.

    ``frames`` holds the node's base-relation frames plus one frame per
    child result.  The join order is greedy smallest-connected-first
    over actual (post-filter) cardinalities.  Cancellation is polled
    once per join and once per group stage -- deterministic counts, so
    ``cancel_checks`` stays parallel-invariant.
    """
    if profiler is not None:
        start, kernels_before = time.perf_counter(), kernel_seconds(profiler)
    if not frames:
        raise ExecutionError("binary node has no input frames")
    budget = config.memory_budget_bytes

    def check_budget(nbytes: int) -> None:
        if budget is not None and nbytes > budget:
            raise OutOfMemoryBudgetError(
                f"binary join intermediate needs ~{nbytes} bytes "
                f"(budget {budget})",
                requested_bytes=nbytes,
                budget_bytes=budget,
            )

    def poll() -> None:
        if stats is not None:
            stats.cancel_checks += 1
        if cancel is not None:
            cancel.check()

    poll()
    if any(f.num_rows == 0 for f in frames):
        result = _reduce_groups(node, None, stats)
    else:
        remaining = sorted(frames, key=lambda f: (f.num_rows, f.alias))
        assembled = _Assembled(remaining.pop(0))
        while remaining:
            pick = None
            for i, frame in enumerate(remaining):
                if any(v in assembled.vertex_columns for v in frame.vertices):
                    pick = i
                    break
            if pick is None:
                pick = 0  # disconnected: cross product with the smallest
            frame = remaining.pop(pick)
            shared = [v for v in frame.vertices if v in assembled.vertex_columns]
            rows = assembled.join(frame, shared)
            if stats is not None:
                stats.binary_joins += 1
                stats.binary_rows += rows
            check_budget(assembled.approx_bytes())
            poll()
            if rows == 0:
                assembled = None
                break
        result = _reduce_groups(node, assembled, stats)
    if stats is not None:
        stats.nodes_executed += 1
        stats.groups_emitted += len(result)
    if profiler is not None:
        # self time: the join and group kernels record their own categories
        in_kernels = kernel_seconds(profiler) - kernels_before
        profiler.add_category(
            "binary.execute", time.perf_counter() - start - in_kernels
        )
    return result


def _fetch_columns(node, assembled: _Assembled) -> Dict[str, np.ndarray]:
    """Resolve walk-fetcher annotation columns via batched trie lookups.

    Every surviving row's determining-vertex combination comes from an
    actual row of the fetch relation, so the batched lookup cannot miss
    (same invariant ``_append_deferred_annotations`` relies on).
    """
    out: Dict[str, np.ndarray] = {}
    for fetcher in node.group_fetchers:
        codes = [
            np.asarray(assembled.vertex_columns[v], dtype=np.uint32)
            for v in fetcher.vertices
        ]
        nodes = fetcher.trie.lookup_nodes_batch(codes)
        out[fetcher.ref_id] = fetcher.trie.annotation(fetcher.ref_id).values[nodes]
    return out


def _reduce_groups(
    node, assembled: Optional[_Assembled], stats=None
) -> BinaryNodeResult:
    n_aggs = len(node.aggregates)
    if assembled is None or assembled.num_rows == 0:
        width = len(node.walk_layout)
        return BinaryNodeResult(
            [np.empty(0, dtype=np.int64) for _ in range(width)],
            np.empty((0, n_aggs), dtype=np.float64),
        )
    fetched = _fetch_columns(node, assembled)
    if stats is not None:
        stats.fetches += len(fetched) * assembled.num_rows
    fetch_dictionaries = {f.ref_id: f.dictionary for f in node.group_fetchers}
    key_columns: List[np.ndarray] = []
    cardinalities: List[Optional[int]] = []
    for kind, ref in node.walk_layout:
        if kind == "vertex":
            key_columns.append(
                assembled.vertex_columns[ref].astype(np.int64, copy=False)
            )
            cardinalities.append(assembled.domain_sizes.get(ref))
        else:
            key_columns.append(np.asarray(fetched[ref]))
            dictionary = fetch_dictionaries[ref]
            cardinalities.append(None if dictionary is None else dictionary.size)
    agg_funcs = [agg.func for agg in node.aggregates]
    agg_values = row_values(
        node.aggregates,
        assembled.slot_columns,
        assembled.num_rows,
        implicit=assembled.implicit_mult,
    )

    if not key_columns:  # scalar aggregate: one group over all rows
        matrix = segmented_reduce(
            agg_funcs, agg_values, *whole_run(assembled.num_rows)
        )
        return BinaryNodeResult([], matrix)

    order, starts = group_runs(key_columns, cardinalities)
    matrix = segmented_reduce(agg_funcs, agg_values, order, starts)
    first = order[starts]
    return BinaryNodeResult([col[first] for col in key_columns], matrix)
