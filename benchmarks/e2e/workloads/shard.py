"""``shard_mix``: a two-worker ``shard://`` fleet behind one closed-loop caller."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

import repro

from .. import procs
from ..schedule import Op
from .graph import TRIANGLE_SQL, graph_tables, triangle_reference
from .tpch import TpchWorkload, exact_op

WORKERS = 2
SCATTER_TEMPLATES = ("Q1", "Q3", "Q5", "Q6", "Q9", "Q10")
NATION_REGION_SQL = (
    "SELECT r_name, count(*) AS nations FROM nation, region "
    "WHERE n_regionkey = r_regionkey GROUP BY r_name"
)


class ShardMix(TpchWorkload):
    name = "shard_mix"
    scale_factor = 0.03
    surface_span = "shard.query"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.fleet = None
        self._walk_engine = None

    def generate(self) -> None:
        super().generate()
        # The graph's node ids are order keys (links between orders), so
        # ``edges`` leads with the partition domain and is split across the
        # workers like ``orders``: its three-way self-join off that key is
        # the query scatter cannot serve, and routes ``local``.
        graph = graph_tables(np.random.default_rng([self.seed, 0x5A]), domain="orderkey")
        self.inputs["edges"] = graph["edges"]

    def _ops(self) -> List[Op]:
        return [exact_op(name) for name in SCATTER_TEMPLATES] + [
            Op(template="nation_region", key=("nation_region",), sql=NATION_REGION_SQL),
            Op(template="triangle", key=("triangle",), sql=TRIANGLE_SQL),
        ]

    def cold_ops(self) -> List[Op]:
        return self._ops()

    def pass_ops(self, index: int) -> List[Op]:
        ops = self._ops()
        return [ops[i] for i in np.random.default_rng([self.seed, index]).permutation(len(ops))]

    def setup(self) -> None:
        with self.timed("register_s"):
            catalog = self.fresh_catalog()
        with self.timed("spawn_s"):
            self.fleet = repro.connect(f"shard://local?workers={WORKERS}", catalog=catalog)

    def surface(self):
        return self.fleet

    def walk_engine(self):
        """A separate local engine over fresh tables: the "local" side of shard - local."""
        if self._walk_engine is None:
            self._walk_engine = repro.connect(catalog=self.fresh_catalog())
            # its own cold pass is the base that shard.ship_s is taken against
            with self.timed("local_cold_s"):
                for op in self.cold_ops():
                    self._walk_engine.query(op.sql)
        return self._walk_engine

    def run_op(self, op: Op, connection: int = 0):
        return self.fleet.query(op.sql)

    def program_pids(self) -> Sequence[int]:
        return [worker.process.pid for worker in self.fleet.workers]

    def peak_rss_mb(self) -> float:
        # the coordinator lives in this process: count it with its workers
        return procs.peak_rss_mb() + super().peak_rss_mb()

    def teardown(self) -> None:
        self._walk_engine = None
        if self.fleet is not None:
            try:
                self.fleet.close()
            finally:
                self.fleet = None
                procs.stop_resource_tracker()

    def layer_metrics(self, ctx) -> dict:
        out = super().layer_metrics(ctx)
        routes = {"scatter": 0, "single": 0, "local": 0}
        for root in ctx.trace_roots.values():
            # the coordinator's own root is shard.<route>; a query it ran on
            # its local engine comes back with the engine's "query" root
            route = root[len("shard."):] if root.startswith("shard.") else "local"
            routes[route] += 1
        cpu = [procs.cpu_seconds(pid) for pid in self.program_pids()]
        out.update({f"shard.route_{route}": float(count) for route, count in routes.items()})
        out.update({
            "shard.q1_speedup_vs_local": (
                ctx.span_ms("core.query", "Q1") / ctx.span_ms("shard.query", "Q1")
            ),
            "shard.q6_overhead_ms": ctx.span_ms("shard.query", "Q6", own=True),
            "shard.spawn_s": self.parts["spawn_s"],
            "shard.ship_s": max(0.0, ctx.cold_pass_s - self.parts["local_cold_s"]),
            "shard.worker_cpu_balance": min(cpu) / max(cpu) if max(cpu) else 0.0,
        })
        return out

    def compute_reference(self, op: Op):
        if op.template == "triangle":
            return triangle_reference(self.inputs["edges"][1])
        return super().compute_reference(op)
