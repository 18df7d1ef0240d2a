"""Dense set layout: a packed 64-bit-word bit vector over a value range.

:class:`BitSet` is also the generic join's bitmap kernel: a trie level
whose (parent, value) cells fit the byte allowance keeps one over its
composite keys and answers each batched frontier probe with
:meth:`BitSet.rank_present`.
"""

from __future__ import annotations

import numpy as np

from .layout import Layout

#: probes per block of :meth:`BitSet.rank_present`: 8 Ki int64 values
#: keep every temporary at 64 KiB, below the allocator's mmap threshold,
#: so a probe of any size reuses the same heap pages instead of faulting
#: fresh ones in for each call.
PROBE_BLOCK = 1 << 13


def popcount64(words: np.ndarray) -> np.ndarray:
    """Vectorized population count for an array of ``uint64`` words."""
    return np.bitwise_count(words)


class BitSet:
    """An immutable dense set stored as a bit vector.

    ``base`` is the value of bit 0 (always 64-aligned) and ``words`` holds
    the packed membership bits.  Trie levels whose (parent, value) cells
    fit keep one over their composite keys for probing
    (:meth:`rank_present`); the bs/bs and bs/uint intersections the
    layout enables are respectively ~50x and ~5x cheaper than uint/uint
    at equal cardinality, which is the origin of the paper's icost
    constants (Figure 5a, Section V-A1).
    """

    __slots__ = ("base", "words", "_cardinality", "_rank_prefix")

    layout = Layout.BITSET

    def __init__(self, base: int, words: np.ndarray, cardinality: int | None = None):
        if base % 64 != 0:
            raise ValueError("bitset base must be 64-aligned")
        if words.dtype != np.uint64:
            words = words.astype(np.uint64)
        self.base = int(base)
        self.words = words
        self._cardinality = cardinality
        self._rank_prefix: np.ndarray | None = None

    @classmethod
    def from_values(cls, values: np.ndarray) -> "BitSet":
        """Build a bitset from sorted, duplicate-free non-negative integers.

        Sorted input makes each word's members one contiguous run, so the
        words are one ``bitwise_or.reduceat`` over those runs.
        """
        arr = np.asarray(values, dtype=np.uint64)
        if arr.size == 0:
            return cls(0, np.zeros(0, dtype=np.uint64), 0)
        base = int(arr[0]) & ~63
        offsets = arr - np.uint64(base)
        word_idx = offsets >> np.uint64(6)
        runs = np.flatnonzero(word_idx[1:] != word_idx[:-1]) + 1
        runs = np.concatenate(([0], runs))
        words = np.zeros(int(word_idx[-1]) + 1, dtype=np.uint64)
        words[word_idx[runs]] = np.bitwise_or.reduceat(
            np.uint64(1) << (offsets & np.uint64(63)), runs
        )
        return cls(base, words, int(arr.size))

    @classmethod
    def full_range(cls, start: int, stop: int) -> "BitSet":
        """Build a bitset holding every value in ``[start, stop)``.

        Completely dense trie levels (dense matrices, Section V-A1's
        icost-0 special case) use this constructor.
        """
        if stop <= start:
            return cls(0, np.zeros(0, dtype=np.uint64), 0)
        base = start & ~63
        n_words = ((stop - 1 - base) >> 6) + 1
        words = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        lead = start - base
        if lead:
            words[0] &= np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(lead)
        tail = (stop - base) & 63
        if tail:
            words[-1] &= ~(np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(tail))
        return cls(base, words, stop - start)

    @classmethod
    def empty(cls) -> "BitSet":
        return cls(0, np.zeros(0, dtype=np.uint64), 0)

    # -- basic protocol ----------------------------------------------------

    @property
    def cardinality(self) -> int:
        if self._cardinality is None:
            self._cardinality = int(popcount64(self.words).sum())
        return self._cardinality

    @property
    def nbytes(self) -> int:
        """Bytes held by the word buffer (kernel-profiler accounting)."""
        return int(self.words.nbytes)

    def __len__(self) -> int:
        return self.cardinality

    def __bool__(self) -> bool:
        return self.cardinality > 0

    def is_empty(self) -> bool:
        """Cheap emptiness test (no popcount)."""
        if self._cardinality is not None:
            return self._cardinality == 0
        return not self.words.any()

    def approx_cardinality(self) -> int:
        """An upper bound cheap enough for operand ordering."""
        if self._cardinality is not None:
            return self._cardinality
        return int(self.words.size) * 64

    def __iter__(self):
        return iter(self.to_array())

    def __eq__(self, other) -> bool:
        if not hasattr(other, "to_array"):
            return NotImplemented
        return np.array_equal(self.to_array(), other.to_array())

    def __hash__(self):
        raise TypeError("BitSet is unhashable")

    def __repr__(self) -> str:
        return f"BitSet(base={self.base}, words={self.words.size}, n={self.cardinality})"

    # -- queries -----------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Return the sorted member values as a ``uint32`` array."""
        if self.words.size == 0:
            return np.empty(0, dtype=np.uint32)
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return (np.flatnonzero(bits) + self.base).astype(np.uint32)

    @property
    def min_value(self) -> int:
        # Endpoint reads are on the optimizer's layout-guessing hot path:
        # scan for the first non-zero word instead of materializing the
        # whole member array.
        word_index = self._first_nonzero_word()
        if word_index < 0:
            raise ValueError("empty set has no minimum")
        word = int(self.words[word_index])
        return self.base + (word_index << 6) + ((word & -word).bit_length() - 1)

    @property
    def max_value(self) -> int:
        word_index = self._last_nonzero_word()
        if word_index < 0:
            raise ValueError("empty set has no maximum")
        word = int(self.words[word_index])
        return self.base + (word_index << 6) + (word.bit_length() - 1)

    def _first_nonzero_word(self) -> int:
        if self.words.size == 0:
            return -1
        index = int(np.argmax(self.words != 0))
        return index if self.words[index] else -1

    def _last_nonzero_word(self) -> int:
        if self.words.size == 0:
            return -1
        index = int(self.words.size - 1 - np.argmax(self.words[::-1] != 0))
        return index if self.words[index] else -1

    def contains(self, value: int) -> bool:
        off = int(value) - self.base
        if off < 0 or (off >> 6) >= self.words.size:
            return False
        return bool((self.words[off >> 6] >> np.uint64(off & 63)) & np.uint64(1))

    def contains_many(self, values: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean mask."""
        probe = np.asarray(values, dtype=np.int64) - self.base
        out = np.zeros(probe.shape, dtype=bool)
        in_range = (probe >= 0) & ((probe >> 6) < self.words.size)
        off = probe[in_range]
        hit = (self.words[off >> 6] >> (off & 63).astype(np.uint64)) & np.uint64(1)
        out[in_range] = hit.astype(bool)
        return out

    def rank_directory(self) -> np.ndarray:
        """Exclusive prefix sum of per-word popcounts (rank support),
        built on first use and cached: one int64 per word."""
        if self._rank_prefix is None:
            counts = popcount64(self.words)
            prefix = np.zeros(self.words.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=prefix[1:])
            self._rank_prefix = prefix
        return self._rank_prefix

    def rank(self, value: int) -> int:
        """Return the 0-based position of ``value`` within the set."""
        if not self.contains(value):
            raise KeyError(f"value {value} not in set")
        off = int(value) - self.base
        word, bit = off >> 6, off & 63
        low = int(self.words[word]) & ((1 << bit) - 1)
        return int(self.rank_directory()[word]) + low.bit_count()

    def rank_present(
        self, values: np.ndarray, parents: np.ndarray | None = None, width: int = 0
    ) -> np.ndarray:
        """Vectorized present-and-rank: each probe's 0-based rank in the
        set, -1 where it is absent.

        ``values`` (and ``parents``) are non-negative integers of any
        width; a probe may lie below :attr:`base` or past the last word.
        With ``parents`` the set is read as a row-major grid ``width``
        cells wide: probe ``i`` is the member ``parents[i] * width +
        values[i]``, and a value ``>= width`` is absent (it would alias
        the next row).

        The rank of a member at word ``w``, bit ``b`` is
        ``rank_directory()[w]`` plus the members below it in its word.
        Shifting the word left by ``63 - b`` keeps exactly bits ``0..b``,
        with the probed bit on top, so one popcount gives the rank plus
        the presence bit.
        """
        values = np.asarray(values)
        out = np.empty(values.size, dtype=np.int64)
        if not self.words.size:
            out.fill(-1)
            return out
        words, prefix = self.words, self.rank_directory()
        span = np.uint64(words.size << 6)
        for lo in range(0, values.size, PROBE_BLOCK):
            hi = lo + PROBE_BLOCK
            # values are widened block by block: a whole-array int64 copy
            # of a uint32 probe would be a fresh, page-faulting temporary
            column = values[lo:hi].astype(np.int64, copy=False)
            if parents is None:
                offset = column - self.base
                inside = offset.view(np.uint64) < span
            else:
                offset = parents[lo:hi].astype(np.int64)
                offset *= width
                offset += column
                offset -= self.base
                inside = offset.view(np.uint64) < span
                inside &= column < width
            offset *= inside  # an absent probe reads word 0, then is masked
            word = offset >> 6
            offset &= 63
            np.subtract(63, offset, out=offset)
            held = words[word]
            held <<= offset.view(np.uint64)
            held *= inside
            rank = out[lo:hi]
            np.take(prefix, word, out=rank)
            rank += popcount64(held)
            held >>= np.uint64(63)  # the probed bit: 1 present, 0 absent
            rank *= held.view(np.int64)
            rank -= 1
        return out

    def select(self, mask: np.ndarray) -> "BitSet":
        """Return the subset of members where ``mask`` (aligned) is True."""
        return BitSet.from_values(self.to_array()[mask])
