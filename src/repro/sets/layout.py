"""Set layout selection.

LevelHeaded stores each trie-level set in one of two physical layouts
(Section III-B of the paper, a design inherited from EmptyHeaded):

* ``UINT`` -- a sorted array of unsigned integers, used for sparse sets.
* ``BITSET`` -- a packed bit vector over a value range, used for dense sets.

:func:`choose_layout` picks one per set from its density (cardinality
relative to its value range), and the cost-based optimizer of Section V
prices each intersection by its layout pair (:mod:`repro.optimizer.icost`).

The generic join probes a whole trie level per frontier step, so its
layout choice is per level, over the level's (parent, value) cells:
an int64 direct table while :func:`fits_table` holds, a presence
bitmap with a rank directory (a :class:`~repro.sets.bitset.BitSet`
over composite keys) while :func:`fits_bitmap` holds, and a search of
the sorted composite keys for the sparse rest.
"""

from __future__ import annotations

import enum


class Layout(enum.Enum):
    """Physical layout of a trie-level set."""

    UINT = "uint"
    BITSET = "bs"

    def __lt__(self, other: "Layout") -> bool:
        # The paper orders layouts bs < uint when sequencing multi-way
        # intersections (bitsets are always processed first, Section V-A1).
        if not isinstance(other, Layout):
            return NotImplemented
        return self is Layout.BITSET and other is Layout.UINT


#: A set becomes a bitset when its value range is at most this many times
#: its cardinality (i.e. density >= 1/DENSITY_FACTOR).  EmptyHeaded and
#: LevelHeaded use a comparable range-vs-cardinality switch.
DENSITY_FACTOR = 16

#: Sets smaller than this always use the UINT layout; bitset bookkeeping
#: does not pay off for tiny sets.
MIN_BITSET_CARDINALITY = 8


#: A table indexed by code (a join's build side, a column's value range,
#: a trie level's child ids) is used only while the code domain is at
#: most this multiple of the rows involved, plus a small floor so tiny
#: inputs over a mid-sized domain still get one: table memory is bounded
#: by input size, never by the catalog.
TABLE_ROWS_MULTIPLE = 4
TABLE_FLOOR = 1 << 16


def fits_table(domain_size: int, n_rows: int) -> bool:
    """True when a direct-address table over ``domain_size`` codes pays
    for itself against ``n_rows`` rows."""
    return domain_size <= max(TABLE_ROWS_MULTIPLE * n_rows, TABLE_FLOOR)


def fits_bitmap(n_cells: int, n_rows: int) -> bool:
    """True when a presence bitmap with a rank directory over ``n_cells``
    fits the byte allowance :func:`fits_table` grants an int64 table.

    The table spends 64 bits per cell; the bitmap spends two (its own bit
    plus a 64th of the int64 rank prefix each 64-bit word carries), so it
    covers 32x the cells in the same bytes.
    """
    return n_cells <= 32 * max(TABLE_ROWS_MULTIPLE * n_rows, TABLE_FLOOR)


def choose_layout(cardinality: int, min_value: int, max_value: int) -> Layout:
    """Pick the storage layout for a set with the given shape.

    Parameters mirror what the trie builder knows cheaply at ingestion:
    the number of distinct values and the inclusive value range.
    """
    if cardinality < MIN_BITSET_CARDINALITY:
        return Layout.UINT
    value_range = int(max_value) - int(min_value) + 1
    if value_range <= cardinality * DENSITY_FACTOR:
        return Layout.BITSET
    return Layout.UINT
