"""Sharded multi-process scale-out behind the unified query surface.

``repro.connect("shard://local?workers=4")`` builds a
:class:`ShardCoordinator`: registered relations partition by
leading-attribute hash across N worker processes (each a full engine
behind the ordinary frame protocol -- :mod:`repro.shard.worker`),
compiled plans scatter in partial mode, and per-shard column chunks
gather through a semiring-aware merge (:mod:`repro.shard.merge`) plus
the exact finalization a single-process run applies
(:mod:`repro.xcution.finalize`) -- which is what makes sharded answers
byte-identical to serial ones.  See ``docs/scaleout.md``.
"""

from .coordinator import ShardCoordinator, ShardStatement
from .merge import MERGEABLE_FUNCS, merge_partials, merge_shard_stats
from .partitioner import (
    choose_partition_domain,
    leading_domain,
    shard_indices,
    slice_table,
)
from .worker import ShardWorker, worker_main

__all__ = [
    "ShardCoordinator",
    "ShardStatement",
    "ShardWorker",
    "worker_main",
    "MERGEABLE_FUNCS",
    "merge_partials",
    "merge_shard_stats",
    "choose_partition_domain",
    "leading_domain",
    "shard_indices",
    "slice_table",
]
