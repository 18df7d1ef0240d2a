"""Execution engine: physical plans, the generic WCOJ executor,
Yannakakis-style plan-tree execution, the scan path, and BLAS routing.

(The package is named ``xcution`` because ``exec`` is a Python keyword.)
"""

from .aggregator import GroupAggregator
from .generic_join import NodeExecutor
from .plan import (
    AggregateRuntime,
    BlasPlan,
    EngineConfig,
    GroupFetcher,
    NodePlan,
    PhysicalPlan,
    RelationBinding,
    ScanPlan,
    build_plan,
)
from .scan import execute_scan
from .stats import ExecutionStats
from .yannakakis import RawResult, execute_plan

__all__ = [
    "EngineConfig",
    "PhysicalPlan",
    "NodePlan",
    "ScanPlan",
    "BlasPlan",
    "RelationBinding",
    "GroupFetcher",
    "AggregateRuntime",
    "build_plan",
    "NodeExecutor",
    "GroupAggregator",
    "execute_scan",
    "execute_plan",
    "RawResult",
    "ExecutionStats",
]
