"""How a shard coordinator splits one catalog across worker engines.

LevelHeaded's storage model makes horizontal partitioning unusually
clean: every table's trie is keyed by its *leading* attribute, and key
attributes draw their values from shared, named domains.  Partitioning
by leading-attribute hash therefore co-partitions every table whose
leading key lives in the same domain -- ``lineitem`` and ``orders``
split by ``orderkey`` land matching tuples on the same shard, so a
join through that domain never crosses shard boundaries.

The scheme:

* pick one *partition domain* (explicitly, or the leading-key domain
  carrying the most total rows -- the dominant fact tables);
* tables whose leading key lives in that domain are **partitioned**:
  row ``r`` goes to shard ``hash(leading_key(r)) % N``;
* every other table (dimensions, LA operands, the ``__dim_*`` anchor
  tables) is **replicated** whole to all shards.

Hashing is deterministic and value-based: integers hash as ``v % N``
(dbgen-style dense keys spread evenly), everything else through
``crc32(str(v))``.  Nothing here depends on dictionary codes -- two
shards may encode the same value differently, which is why workers
return *decoded* group keys (see :meth:`LevelHeadedEngine._decode_partial`).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..storage.table import Table

__all__ = [
    "leading_domain",
    "choose_partition_domain",
    "shard_indices",
    "slice_table",
]


def leading_domain(table: Table) -> Optional[str]:
    """The domain of ``table``'s leading key attribute (None if keyless)."""
    keys = table.schema.key_names
    if not keys:
        return None
    return table.schema.attribute(keys[0]).domain_name


def choose_partition_domain(tables: Iterable[Table]) -> Optional[str]:
    """Pick the leading-key domain carrying the most total rows.

    The biggest tables are the ones worth splitting; everything else is
    cheap to replicate.  Ties break lexicographically so the choice is
    deterministic across runs.  Internal ``__dim_*`` anchor tables are
    skipped as *votes* (their row count is a domain size, not data
    volume) but still partition if their domain wins through real
    tables.
    """
    totals: Dict[str, int] = {}
    for table in tables:
        if table.name.startswith("__dim_"):
            continue
        domain = leading_domain(table)
        if domain is not None:
            totals[domain] = totals.get(domain, 0) + table.num_rows
    if not totals:
        return None
    return max(sorted(totals), key=lambda domain: totals[domain])


def shard_indices(table: Table, attr_name: str, workers: int) -> List[np.ndarray]:
    """Row indices per shard, hashing ``attr_name``'s values mod ``workers``."""
    values = np.asarray(table.columns[attr_name])
    if values.dtype.kind in "iu":
        # numpy's % matches Python's for negatives: always in [0, N)
        buckets = values.astype(np.int64) % workers
    else:
        buckets = np.fromiter(
            (zlib.crc32(str(v).encode("utf-8")) % workers for v in values.tolist()),
            dtype=np.int64,
            count=len(values),
        )
    return [np.flatnonzero(buckets == w) for w in range(workers)]


def slice_table(table: Table, indices: np.ndarray) -> Table:
    """A new Table holding just ``indices``' rows (schema shared)."""
    columns = {
        name: np.asarray(table.columns[name])[indices]
        for name in table.schema.names
    }
    return Table(table.schema, columns)

