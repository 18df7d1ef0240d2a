"""Set layout selection.

LevelHeaded stores each trie-level set in one of two physical layouts
(Section III-B of the paper, a design inherited from EmptyHeaded):

* ``UINT`` -- a sorted array of unsigned integers, used for sparse sets.
* ``BITSET`` -- a packed bit vector over a value range, used for dense sets.

The layout is chosen per set at ingestion time based on the set's density
(cardinality relative to its value range).  The intersection algorithms --
and therefore their costs, which drive the cost-based optimizer of
Section V -- differ per layout pair.
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
