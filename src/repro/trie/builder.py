"""Trie construction from encoded key columns and annotation columns.

The builder orders rows lexicographically by the key attributes (a
radix order over packed dictionary codes,
:func:`repro.xcution.codes.row_order`), derives the distinct-prefix
structure of every level in vectorized passes, and pre-aggregates
annotation values over duplicate key prefixes with a per-annotation
combine function (the semiring-sum pre-aggregation that makes
aggregate-join queries over annotated relations correct when eliminated
key attributes collapse duplicates -- Sections II-C and IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import SchemaError
from .dictionary import Dictionary
from .trie import Annotation, Trie, TrieLevel

#: combine functions accepted for duplicate key prefixes.
COMBINES = ("sum", "first", "min", "max", "count")


@dataclass
class AnnotationSpec:
    """Request to attach one annotation buffer while building a trie.

    ``level`` is the 0-based trie level the annotation hangs off (it must
    be functionally determined by the first ``level + 1`` key attributes,
    or ``combine`` must make the collapse sound).  ``combine`` states how
    duplicate rows for one node merge: ``sum``/``min``/``max`` for
    aggregated annotations, ``first`` for functionally-dependent metadata
    (Rule 4's container M), and ``count`` for tuple multiplicities.
    """

    name: str
    values: Optional[np.ndarray]
    level: int
    combine: str = "sum"
    dictionary: Optional[Dictionary] = None

    def __post_init__(self):
        if self.combine not in COMBINES:
            raise SchemaError(f"unknown combine '{self.combine}'")
        if self.values is None and self.combine != "count":
            raise SchemaError(f"annotation '{self.name}' has no values")


def _combine_groups(values: np.ndarray, starts: np.ndarray, n_rows: int, combine: str) -> np.ndarray:
    """Collapse sorted rows into one value per group (group starts given)."""
    if combine == "first":
        return values[starts]
    if combine == "count":
        ends = np.append(starts[1:], n_rows)
        return (ends - starts).astype(np.int64)
    if combine == "sum":
        acc = values
        if np.issubdtype(values.dtype, np.integer):
            acc = values.astype(np.int64)
        elif values.dtype != np.float64:
            acc = values.astype(np.float64)
        return np.add.reduceat(acc, starts)
    if combine == "min":
        return np.minimum.reduceat(values, starts)
    if combine == "max":
        return np.maximum.reduceat(values, starts)
    raise SchemaError(f"unknown combine '{combine}'")


def build_trie(
    key_columns: Sequence[np.ndarray],
    key_attrs: Sequence[str],
    annotations: Sequence[AnnotationSpec] = (),
    domain_sizes: Sequence[int] | None = None,
) -> Trie:
    """Build a trie over encoded (uint32) key columns.

    ``key_columns`` are parallel arrays of dictionary codes, one per key
    attribute in trie-level order.  ``domain_sizes`` (dictionary sizes
    per level) declare the code range the row ordering packs.  The
    builder reads no clock: the executor's ``child.materialize`` span
    times a child result's build.
    """
    if not key_columns:
        raise SchemaError("a trie needs at least one key attribute")
    if len(key_columns) != len(key_attrs):
        raise SchemaError("key_columns and key_attrs length mismatch")
    n_rows = int(key_columns[0].size)
    for col in key_columns:
        if col.size != n_rows:
            raise SchemaError("key columns must have equal length")
    for spec in annotations:
        if spec.values is not None and spec.values.size != n_rows:
            raise SchemaError(f"annotation '{spec.name}' length mismatch")
        if not 0 <= spec.level < len(key_columns):
            raise SchemaError(f"annotation '{spec.name}' level out of range")

    cols = [np.ascontiguousarray(c, dtype=np.uint32) for c in key_columns]
    if n_rows == 0:
        return _empty_trie(key_attrs, annotations, len(cols))

    # Builds can dominate compile time for large relations; poll the
    # ambient cancel token (set by the engine's ``cancel_scope``) once
    # per level pass so deadlines fire during compilation too.  Both
    # imported lazily: ``repro.core`` imports the engine and
    # ``repro.xcution`` the planner, which import this module.
    from ..core.governor import current_cancel
    from ..xcution.codes import row_order

    cancel = current_cancel()
    if cancel is not None:
        cancel.check()

    order = row_order(cols, domain_sizes)[0]
    cols = [c[order] for c in cols]

    # new_prefix[i] marks rows starting a new distinct prefix of length
    # depth+1; a parent's first row starts its first child, so a level's
    # offsets are the positions of the parents' starts among its own.
    levels: list[TrieLevel] = []
    new_prefix = np.zeros(n_rows, dtype=bool)
    new_prefix[0] = True
    starts_per_level: list[np.ndarray] = []
    for col in cols:
        if cancel is not None:
            cancel.check()
        parent_prefix = new_prefix.copy()
        np.logical_or(new_prefix[1:], col[1:] != col[:-1], out=new_prefix[1:])
        starts = np.flatnonzero(new_prefix)
        offsets = np.append(np.flatnonzero(parent_prefix[starts]), starts.size)
        levels.append(TrieLevel(col[starts], offsets))
        starts_per_level.append(starts)

    built_annotations = {}
    for spec in annotations:
        starts = starts_per_level[spec.level]
        vals = None if spec.values is None else spec.values[order]
        collapsed = _combine_groups(
            vals if vals is not None else np.empty(0), starts, n_rows, spec.combine
        )
        built_annotations[spec.name] = Annotation(
            spec.name, spec.level, collapsed, dictionary=spec.dictionary
        )

    return Trie(key_attrs=tuple(key_attrs), levels=levels, annotations=built_annotations)


def _empty_trie(key_attrs, annotations, arity) -> Trie:
    levels = [
        TrieLevel(
            np.empty(0, dtype=np.uint32),
            np.zeros(2 if depth == 0 else 1, dtype=np.int64),
        )
        for depth in range(arity)
    ]
    built = {
        spec.name: Annotation(
            spec.name,
            spec.level,
            np.empty(0, dtype=np.int64 if spec.combine == "count" else np.float64),
            dictionary=spec.dictionary,
        )
        for spec in annotations
    }
    return Trie(key_attrs=tuple(key_attrs), levels=levels, annotations=built)
