"""Set construction and the three intersection kernels.

The generic WCOJ algorithm's bottleneck operation is set intersection
(Section III-C).  Three kernels exist, one per layout pair, and their
relative costs are what the cost-based optimizer's ``icost`` constants
model (Section V-A1, Figure 5a):

* ``bs  ∩ bs``   -- word-wise AND over the overlapping range (cheapest),
* ``bs  ∩ uint`` -- probe the uint values against the bit vector,
* ``uint ∩ uint`` -- binary-search probe of the smaller into the larger.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .bitset import BitSet
from .layout import Layout, choose_layout
from .uintset import UintSet

Set = Union[UintSet, BitSet]


def make_set(values: np.ndarray, force_layout: Layout | None = None) -> Set:
    """Build a set from sorted, duplicate-free values, choosing a layout.

    ``force_layout`` overrides the density heuristic (the intersection
    micro-benchmarks and tests pin a layout pair with it).
    """
    arr = np.asarray(values, dtype=np.uint32)
    if arr.size == 0:
        return UintSet.empty()
    layout = force_layout
    if layout is None:
        layout = choose_layout(arr.size, int(arr[0]), int(arr[-1]))
    if layout is Layout.BITSET:
        return BitSet.from_values(arr)
    return UintSet(arr)


def from_unsorted(values: np.ndarray, force_layout: Layout | None = None) -> Set:
    """Build a set from arbitrary non-negative integers."""
    arr = np.asarray(values)
    if arr.size == 0:
        return UintSet.empty()
    return make_set(np.unique(arr), force_layout=force_layout)


# -- intersection kernels ---------------------------------------------------


def _intersect_uint_uint(a: UintSet, b: UintSet) -> UintSet:
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return UintSet.empty()
    probe = small.values
    idx = np.searchsorted(large.values, probe)
    in_range = idx < large.values.size
    hits = np.zeros(probe.shape, dtype=bool)
    hits[in_range] = large.values[idx[in_range]] == probe[in_range]
    return UintSet(probe[hits])


def _intersect_bs_bs(a: BitSet, b: BitSet) -> BitSet:
    if a.words.size == 0 or b.words.size == 0:
        return BitSet.empty()
    lo = max(a.base, b.base)
    hi = min(a.base + 64 * a.words.size, b.base + 64 * b.words.size)
    if hi <= lo:
        return BitSet.empty()
    a_words = a.words[(lo - a.base) >> 6 : (hi - a.base) >> 6]
    b_words = b.words[(lo - b.base) >> 6 : (hi - b.base) >> 6]
    return BitSet(lo, a_words & b_words)


def _intersect_bs_uint(a: BitSet, b: UintSet) -> UintSet:
    if len(b) == 0 or a.words.size == 0:
        return UintSet.empty()
    return UintSet(b.values[a.contains_many(b.values)])


def intersect(a: Set, b: Set) -> Set:
    """Intersect two sets, dispatching on their layouts.

    Result layouts follow the paper's convention: bs∩bs stays a bitset,
    any intersection involving a uint side yields a uint set
    (``uint = l(bs ∩ uint)`` in Section V-A1).  No engine path calls
    it: the frontier probes whole trie levels, and the kernel profile
    counts those probes.
    """
    if a.layout is Layout.BITSET and b.layout is Layout.BITSET:
        return _intersect_bs_bs(a, b)
    if a.layout is Layout.BITSET:
        return _intersect_bs_uint(a, b)
    if b.layout is Layout.BITSET:
        return _intersect_bs_uint(b, a)
    return _intersect_uint_uint(a, b)


def intersect_many(sets: Sequence[Set]) -> Set:
    """Intersect any number of sets.

    Bitsets are processed first (the paper's multi-way sequencing rule:
    for N > 2 operands the pairwise icosts are summed with ``bs`` sets
    always handled first), which also happens to be the fast order.
    """
    if not sets:
        raise ValueError("intersect_many requires at least one set")
    ordered = sorted(
        sets, key=lambda s: (s.layout is not Layout.BITSET, s.approx_cardinality())
    )
    result = ordered[0]
    for other in ordered[1:]:
        if result.is_empty():
            return UintSet.empty()
        result = intersect(result, other)
    return result


# -- union / difference (used by 1-attribute unions and tests) --------------


def union(a: Set, b: Set) -> Set:
    """Union two sets; the result layout is re-chosen by density."""
    merged = np.union1d(a.to_array(), b.to_array())
    return make_set(merged)


def union_many(sets: Iterable[Set]) -> Set:
    arrays = [s.to_array() for s in sets]
    arrays = [arr for arr in arrays if arr.size]
    if not arrays:
        return UintSet.empty()
    return make_set(np.unique(np.concatenate(arrays)))


def difference(a: Set, b: Set) -> Set:
    """Return members of ``a`` not in ``b`` (always a uint set)."""
    arr = a.to_array()
    return UintSet(arr[~b.contains_many(arr)])
