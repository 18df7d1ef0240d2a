"""The six workloads, by the name ``--workload`` selects."""

from .bi import BiAdhoc, BiHot
from .ingest import IngestChurn
from .la import LaGraph
from .serve import ServeMix
from .shard import ShardMix

WORKLOADS = {
    cls.name: cls for cls in (BiHot, BiAdhoc, LaGraph, IngestChurn, ServeMix, ShardMix)
}
