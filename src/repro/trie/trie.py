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

The same order makes a level's node ids the ranks of its composite keys
``parent * domain + value``.  A batched probe
(:meth:`TrieLevel.batch_child_ids`) therefore needs only one structure
per level, picked by how many ``parents x domain`` cells the level has
next to its node count: a direct child-id table for small levels, the
paper's dense bitset layout -- a presence bitmap whose popcount rank
directory turns a present cell into its node id -- for denser ones, and
a binary search of the sorted keys for the sparse rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sets.bitset import BitSet
from ..sets.layout import fits_bitmap, fits_table
from .dictionary import Dictionary


class TrieLevel:
    """One level of a trie: the sets of one key attribute.

    Values for all parents live in one flat buffer; ``offsets[p]`` /
    ``offsets[p+1]`` bound parent ``p``'s slice.  Executors probe whole
    batches of (parent, value) pairs at once (:meth:`batch_child_ids`).
    """

    __slots__ = ("flat_values", "offsets", "_probe_index")

    def __init__(self, flat_values: np.ndarray, offsets: np.ndarray):
        self.flat_values = flat_values
        self.offsets = offsets
        #: ``(kind, structure, domain)`` answering :meth:`batch_child_ids`,
        #: built on the first probe (:meth:`probe_index`).
        self._probe_index: Optional[Tuple[str, object, int]] = None

    @property
    def n_parents(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n_nodes(self) -> int:
        return int(self.flat_values.size)

    def values_for(self, parent: int) -> np.ndarray:
        """The sorted distinct values under ``parent`` (zero-copy view)."""
        return self.flat_values[self.offsets[parent] : self.offsets[parent + 1]]

    def child_base(self, parent: int) -> int:
        """First child node id at the next level for ``parent``'s slice."""
        return int(self.offsets[parent])

    def _parent_of_node(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_parents, dtype=np.int64), np.diff(self.offsets))

    def probe_index(self) -> Tuple[str, object, int]:
        """The structure batched probes read: ``(kind, structure, domain)``.

        Built on the first probe and cached.  Cached tries and cached
        plans are shared, so concurrent queries may race to build it;
        each builds the same index, and one of them is kept.  The
        level's cells are ``parents x domain`` (``domain`` = largest
        value + 1); node ids are positional in (parent, value) order, so
        each kind maps a present cell to its node id:

        * ``"table"`` -- an int64 child id per cell (-1 where absent),
          while :func:`~repro.sets.layout.fits_table` holds;
        * ``"bitmap"`` -- a :class:`~repro.sets.bitset.BitSet` over the
          composite keys ``parent * domain + value``, whose rank is the
          node id, while :func:`~repro.sets.layout.fits_bitmap` holds;
        * ``"search"`` -- the sorted ``(parent << 32) | value`` keys, for
          the sparse rest.
        """
        index = self._probe_index
        if index is None:
            index = self._build_probe_index()
            self._probe_index = index
        return index

    def _build_probe_index(self) -> Tuple[str, object, int]:
        if not self.n_nodes:
            return "search", np.empty(0, dtype=np.int64), 0
        domain = int(self.flat_values.max()) + 1
        cells = self.n_parents * domain
        parent = self._parent_of_node()
        if fits_table(cells, self.n_nodes):
            table = np.full(cells, -1, dtype=np.int64)
            table[parent * domain + self.flat_values] = np.arange(self.n_nodes, dtype=np.int64)
            return "table", table, domain
        if fits_bitmap(cells, self.n_nodes):
            return "bitmap", BitSet.from_values(parent * domain + self.flat_values), domain
        composite = (parent << np.int64(32)) | self.flat_values.astype(np.int64)
        return "search", composite, domain

    @property
    def probe_kind(self) -> str:
        """``"table"``, ``"bitmap"`` or ``"search"`` (see :meth:`probe_index`)."""
        return self.probe_index()[0]

    @property
    def probe_nbytes(self) -> int:
        """Bytes of the structure a batched probe reads."""
        kind, structure, _domain = self.probe_index()
        if kind == "bitmap":
            return structure.nbytes + structure.rank_directory().nbytes
        return int(structure.nbytes)

    def batch_child_ids(
        self, parents: Optional[np.ndarray], values: np.ndarray
    ) -> np.ndarray:
        """Node ids of many (parent, value) pairs; -1 where a pair is absent.

        ``parents=None`` looks every value up under parent 0 (a root
        level).  The level answers from its :meth:`probe_index`: a table
        gather, a bitmap present-and-rank
        (:meth:`~repro.sets.bitset.BitSet.rank_present`), or a binary
        search of the composite keys.
        """
        values = np.asarray(values)
        if not self.n_nodes:
            return np.full(values.size, -1, dtype=np.int64)
        kind, structure, domain = self.probe_index()
        if kind == "bitmap":
            return structure.rank_present(values, parents, domain)
        values = values.astype(np.int64, copy=False)
        if kind == "table":
            key = values if parents is None else parents * domain + values
            inside = values < domain
            return np.where(inside, structure[np.where(inside, key, 0)], -1)
        probe = values if parents is None else (parents << np.int64(32)) | values
        position = np.searchsorted(structure, probe)
        found = structure[np.minimum(position, structure.size - 1)] == probe
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

    @property
    def arity(self) -> int:
        return len(self.key_attrs)

    @property
    def num_tuples(self) -> int:
        """Number of distinct key tuples stored."""
        if not self.levels:
            return 0
        return self.levels[-1].n_nodes

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
