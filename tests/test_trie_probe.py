"""Property tests for the trie's batched probes.

:meth:`repro.trie.trie.TrieLevel.batch_child_ids` answers from one of
three structures, chosen per level by how many (parent, value) cells it
has next to its node count: an int64 direct table, a presence bitmap
with a rank directory, or a search of the sorted composite keys.  Each
test draws levels that land in a chosen band, asserts the band's kind
was picked, and checks every answer against a Python dict of
``(parent, value) -> node id``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sets.bitset import PROBE_BLOCK
from repro.sets.layout import TABLE_FLOOR
from repro.trie import build_trie
from repro.trie.trie import TrieLevel

#: at most this many values per parent keeps 4 x nodes under the
#: 65 536-cell floor, so the band edges are exactly the floor and 32x it
MAX_FANOUT = 30
MAX_PARENTS = 40
UINT32_MAX = (1 << 32) - 1


def _domain_range(band: str, n_parents: int):
    """Domains (largest value + 1) that put ``n_parents`` rows in ``band``."""
    table_max = TABLE_FLOOR // n_parents
    bitmap_max = 32 * TABLE_FLOOR // n_parents
    return {
        "table": (1, table_max),
        "bitmap": (table_max + 1, bitmap_max),
        "search": (bitmap_max + 1, UINT32_MAX + 1),
    }[band]


@st.composite
def levels(draw):
    band = draw(st.sampled_from(["table", "bitmap", "search"]))
    n_parents = draw(st.integers(1, MAX_PARENTS))
    domain = draw(st.integers(*_domain_range(band, n_parents)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # leading empty parents push the first key off a 64-bit word boundary
    leading_empty = draw(st.integers(0, n_parents - 1))
    empty_share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    sets = []
    for parent in range(n_parents):
        if parent < leading_empty or rng.random() < empty_share:
            sets.append(np.empty(0, dtype=np.int64))
        else:
            sets.append(np.unique(rng.integers(0, domain, rng.integers(1, MAX_FANOUT))))
    # the largest value fixes the level's domain: plant domain - 1 once
    owner = int(rng.integers(leading_empty, n_parents))
    sets[owner] = np.unique(np.append(sets[owner][: MAX_FANOUT - 1], domain - 1))
    flat = np.concatenate(sets).astype(np.uint32)
    offsets = np.concatenate(([0], np.cumsum([s.size for s in sets]))).astype(np.int64)
    return band, TrieLevel(flat, offsets), draw(st.integers(0, 2 * PROBE_BLOCK + 5)), rng


def _oracle(level: TrieLevel) -> dict:
    parent = np.repeat(np.arange(level.n_parents), np.diff(level.offsets))
    return {(int(p), int(v)): i for i, (p, v) in enumerate(zip(parent, level.flat_values))}


def _probes(level: TrieLevel, n: int, rng):
    """Present pairs, random pairs (mostly absent, empty parents
    included) and values at or past the domain, shuffled together."""
    domain = int(level.flat_values.max()) + 1
    parent = np.repeat(np.arange(level.n_parents), np.diff(level.offsets))
    pick = rng.integers(0, level.n_nodes, n // 3)
    parents = [parent[pick], rng.integers(0, level.n_parents, n // 3)]
    values = [level.flat_values[pick].astype(np.int64), rng.integers(0, domain, n // 3)]
    rest = n - 2 * (n // 3)
    parents.append(rng.integers(0, level.n_parents, rest))
    values.append(domain + rng.integers(0, 1 << 20, rest))
    order = rng.permutation(n)
    return np.concatenate(parents)[order], np.concatenate(values)[order]


@settings(max_examples=120, deadline=None)
@given(levels(), st.booleans())
def test_property_batch_child_ids_matches_dict(case, narrow_values):
    band, level, n_probes, rng = case
    parents, values = _probes(level, n_probes, rng)
    if narrow_values:
        # codes arrive as uint32 trie values; past-the-domain ones that do
        # not fit the width are not probes a uint32 column can make
        keep = values <= UINT32_MAX
        parents, values = parents[keep], values[keep].astype(np.uint32)
    oracle = _oracle(level)
    want = [oracle.get((int(p), int(v)), -1) for p, v in zip(parents, values)]
    got = level.batch_child_ids(parents, values)
    assert level.probe_kind == band
    assert got.dtype == np.int64
    assert got.tolist() == want
    if level.n_parents == 1:
        # a root level: no parents column, every value under parent 0
        assert level.batch_child_ids(None, values).tolist() == want


def test_empty_level_answers_absent():
    level = TrieLevel(np.empty(0, dtype=np.uint32), np.zeros(4, dtype=np.int64))
    assert level.batch_child_ids(np.array([0, 2, 1]), np.array([0, 5, 1 << 31])).tolist() == [-1] * 3


def test_bitmap_level_starts_at_its_first_key_and_reports_its_bytes():
    # 4 parents x 40 000 values = 160 000 cells, past the table floor;
    # parent 0 is empty, so the first key is 40 007 and bit 0 is 40 000
    flat = np.array([7, 39_999, 100, 12], dtype=np.uint32)
    offsets = np.array([0, 0, 2, 3, 4], dtype=np.int64)
    level = TrieLevel(flat, offsets)
    assert level.probe_kind == "bitmap"
    _kind, bitmap, domain = level.probe_index()
    assert (domain, bitmap.base) == (40_000, 40_000)
    assert bitmap.words.size == (3 * 40_000 + 12 - 40_000) // 64 + 1
    # presence bits plus one int64 rank prefix per word
    assert level.probe_nbytes == 2 * bitmap.words.nbytes
    parents = np.array([0, 1, 1, 1, 2, 3, 3, 3, 2])
    values = np.array([7, 7, 39_999, 40_007, 100, 12, 11, 40_000, 99])
    assert level.batch_child_ids(parents, values).tolist() == [-1, 0, 1, -1, 2, 3, -1, -1, -1]


# ---------------------------------------------------------------------------
# Trie.lookup_nodes_batch over three levels
# ---------------------------------------------------------------------------

#: level domains that, over up to 50 x 600 rows, land levels 1 and 2 in
#: each of the three bands
DOMAINS = [40, 3_000, 5_000_000]


@st.composite
def three_level_tries(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domains = [draw(st.sampled_from([1, 50]))] + [draw(st.sampled_from(DOMAINS)) for _ in range(2)]
    n_rows = draw(st.integers(1, 600))
    columns = [rng.integers(0, d, n_rows).astype(np.uint32) for d in domains]
    return domains, columns, rng


@settings(max_examples=60, deadline=None)
@given(three_level_tries())
def test_property_lookup_nodes_batch_on_three_levels(case):
    domains, columns, rng = case
    trie = build_trie(columns, ("a", "b", "c"), domain_sizes=domains)
    tuples = sorted(set(zip(*(c.tolist() for c in columns))))
    oracle = {t: i for i, t in enumerate(tuples)}
    n = 3 * len(tuples)
    present = np.array(tuples, dtype=np.int64)[rng.integers(0, len(tuples), n // 3)]
    mixed = present.copy()
    # one column swapped for a random code: a prefix or tuple that may be absent
    column = rng.integers(0, 3, n // 3)
    mixed[np.arange(n // 3), column] = rng.integers(0, np.array(domains)[column] + 3)
    probe = np.concatenate([present, mixed, rng.integers(0, np.array(domains) + 3, (n // 3, 3))])
    got = trie.lookup_nodes_batch([probe[:, i].astype(np.uint32) for i in range(3)])
    assert got.tolist() == [oracle.get(tuple(row), -1) for row in probe.tolist()]
