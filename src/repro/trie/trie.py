"""The trie index: LevelHeaded's only physical index (Section III-B).

A trie stores a relation's key attributes level by level: level ``i``
holds, for every distinct key prefix of length ``i`` (a *node* of level
``i-1``), the set of distinct values of attribute ``i`` under that
prefix.  Annotation buffers hang off a level in flat columnar arrays so
each can be loaded in isolation -- the physical half of attribute
elimination (Section IV-A) -- and, unlike EmptyHeaded, an annotation can
be attached to (and reached from) *any* level, not just the last.

Node identifiers are positional: the nodes of level ``i`` are numbered
in lexicographic key order, so the child of node ``p`` via the value of
rank ``r`` in ``p``'s set is simply ``offsets[p] + r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sets.layout import fits_table
from .dictionary import Dictionary


class TrieLevel:
    """One level of a trie: the sets of one key attribute.

    Values for all parents live in one flat buffer; ``offsets[p]`` /
    ``offsets[p+1]`` bound parent ``p``'s slice.  Executors probe whole
    batches of (parent, value) pairs at once (:meth:`batch_child_ids`).
    """

    __slots__ = ("flat_values", "offsets", "_batch_composite", "_direct")

    def __init__(self, flat_values: np.ndarray, offsets: np.ndarray):
        self.flat_values = flat_values
        self.offsets = offsets
        self._batch_composite: Optional[np.ndarray] = None
        #: child-id table indexed by ``parent * domain + value`` (-1 where
        #: absent); an empty array once the level proved too sparse for one.
        self._direct: Optional[np.ndarray] = None

    @property
    def n_parents(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n_nodes(self) -> int:
        return int(self.flat_values.size)

    def cardinality(self, parent: int) -> int:
        return int(self.offsets[parent + 1] - self.offsets[parent])

    def values_for(self, parent: int) -> np.ndarray:
        """The sorted distinct values under ``parent`` (zero-copy view)."""
        return self.flat_values[self.offsets[parent] : self.offsets[parent + 1]]

    def child_base(self, parent: int) -> int:
        """First child node id at the next level for ``parent``'s slice."""
        return int(self.offsets[parent])

    def _parent_of_node(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_parents, dtype=np.int64), np.diff(self.offsets))

    def direct_table(self) -> Optional[np.ndarray]:
        """The level's child ids as a direct-address table, or None.

        Built (and cached) only while ``parents x domain`` is small next
        to the level (:func:`repro.sets.layout.fits_table`).
        """
        table = self._direct
        if table is None:
            table = np.empty(0, dtype=np.int64)
            if self.n_nodes:
                domain = int(self.flat_values.max()) + 1
                if fits_table(self.n_parents * domain, self.n_nodes):
                    table = np.full(self.n_parents * domain, -1, dtype=np.int64)
                    table[self._parent_of_node() * domain + self.flat_values] = np.arange(
                        self.n_nodes, dtype=np.int64
                    )
            self._direct = table
        return table if table.size else None

    def batch_child_ids(
        self, parents: Optional[np.ndarray], values: np.ndarray
    ) -> np.ndarray:
        """Node ids of many (parent, value) pairs; -1 where a pair is absent.

        ``parents=None`` looks every value up under parent 0 (a root
        level).  Small levels answer from :meth:`direct_table`; larger
        ones binary-search one composite key, using the fact that nodes
        are ordered by (parent, value).
        """
        values = np.asarray(values).astype(np.int64, copy=False)
        if not self.n_nodes:
            return np.full(values.size, -1, dtype=np.int64)
        table = self.direct_table()
        if table is not None:
            domain = table.size // self.n_parents
            key = values if parents is None else parents * domain + values
            inside = values < domain
            return np.where(inside, table[np.where(inside, key, 0)], -1)
        composite = self._batch_composite
        if composite is None:
            composite = (self._parent_of_node() << np.int64(32)) | self.flat_values.astype(
                np.int64
            )
            self._batch_composite = composite
        probe = values if parents is None else (parents << np.int64(32)) | values
        position = np.searchsorted(composite, probe)
        found = composite[np.minimum(position, composite.size - 1)] == probe
        return np.where(found, position, -1)


@dataclass
class Annotation:
    """A columnar annotation buffer attached to one trie level.

    ``values[node_id]`` is the annotation of the level-``level`` node
    with that id.  String annotations store dictionary codes and carry
    their decode dictionary.
    """

    name: str
    level: int
    values: np.ndarray
    dictionary: Optional[Dictionary] = None

    def decode(self, node_ids: np.ndarray) -> np.ndarray:
        """Return raw (decoded) annotation values for the given nodes."""
        raw = self.values[node_ids]
        if self.dictionary is not None:
            return self.dictionary.decode(raw)
        return raw


@dataclass
class Trie:
    """A relation's key attributes as a trie plus annotation buffers."""

    key_attrs: Tuple[str, ...]
    levels: Sequence[TrieLevel]
    annotations: Dict[str, Annotation] = field(default_factory=dict)
    #: per-level flag: True when every parent's set is the complete range
    #: ``[0, domain)`` -- the "completely dense relation" special case that
    #: receives icost 0 and a BLAS-compatible annotation buffer.
    dense_levels: Tuple[bool, ...] = ()
    #: domain size (dictionary size) per level, when known.
    domain_sizes: Tuple[int, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.key_attrs)

    @property
    def num_tuples(self) -> int:
        """Number of distinct key tuples stored."""
        if not self.levels:
            return 0
        return self.levels[-1].n_nodes

    @property
    def is_fully_dense(self) -> bool:
        """True when every level is a complete range (dense matrix)."""
        return bool(self.dense_levels) and all(self.dense_levels)

    def level(self, i: int) -> TrieLevel:
        return self.levels[i]

    def annotation(self, name: str) -> Annotation:
        return self.annotations[name]

    def lookup_nodes_batch(self, code_columns: Sequence[np.ndarray]) -> np.ndarray:
        """Walk the trie along each row of parallel code columns.

        The ``R[t]`` tuple-matching accessor of Table I, batched: returns
        one node id per row, -1 where the row's key prefix is absent.
        """
        nodes = None
        for depth, codes in enumerate(code_columns):
            parents = None if nodes is None else np.maximum(nodes, 0)
            found = self.levels[depth].batch_child_ids(parents, codes)
            if nodes is not None:
                found[nodes < 0] = -1
            nodes = found
        return nodes

    def tuples(self) -> np.ndarray:
        """Materialize all distinct key tuples as an (n, arity) array.

        Intended for tests and small results, not the execution path.
        """
        n = self.num_tuples
        out = np.empty((n, self.arity), dtype=np.uint32)
        if n == 0:
            return out
        # Walk levels top-down, expanding each node's value to its
        # descendants' rows via repeat counts.
        counts = np.ones(self.levels[-1].n_nodes, dtype=np.int64)
        for depth in range(self.arity - 1, -1, -1):
            level = self.levels[depth]
            out[:, depth] = np.repeat(level.flat_values, counts)
            if depth:
                counts = np.add.reduceat(counts, level.offsets[:-1])
        return out
