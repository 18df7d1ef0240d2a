"""Set layouts and intersection kernels (Sections III-B and V-A).

LevelHeaded stores sets either as sorted uint arrays (sparse) or packed
bitsets (dense).  The engine's frontier probes a whole trie level at a
time, so the layout it uses is per level (:mod:`.layout`): a level whose
(parent, value) cells fit holds one :class:`BitSet` over its composite
keys, built by :meth:`BitSet.from_values` and probed by
:meth:`BitSet.rank_present` -- the bitmap kernel of
:meth:`repro.trie.trie.TrieLevel.batch_child_ids`.

The pairwise kernels of :mod:`.ops` (uint∩uint, bs∩uint, bs∩bs) are the
ones Fig. 5a times and :mod:`repro.optimizer.icost`'s constants derive
from; no engine path calls them.
"""

from .bitset import BitSet, popcount64
from .layout import DENSITY_FACTOR, MIN_BITSET_CARDINALITY, Layout, choose_layout
from .ops import (
    Set,
    difference,
    from_unsorted,
    intersect,
    intersect_many,
    make_set,
    union,
    union_many,
)
from .uintset import UintSet

__all__ = [
    "BitSet",
    "UintSet",
    "Set",
    "Layout",
    "choose_layout",
    "DENSITY_FACTOR",
    "MIN_BITSET_CARDINALITY",
    "popcount64",
    "make_set",
    "from_unsorted",
    "intersect",
    "intersect_many",
    "union",
    "union_many",
    "difference",
]
