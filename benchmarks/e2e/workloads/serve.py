"""``serve_mix``: the served engine as a subprocess, over two connections."""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List, Optional, Sequence

import numpy as np

import repro
from repro.storage.persist import load_catalog, save_catalog

from .. import procs
from ..schedule import Op
from .tpch import Q6_PARAM_SQL, Q6_PARAM_VALUES, TpchWorkload, exact_op, q1_approx_op, q6_param_op

#: ops of one pass, by template: 60 % q6_param, 15 % Q3, 10 % Q10, 10 % Q5, 5 % q1_approx.
MIX = (("q6_param", 12), ("Q3", 3), ("Q10", 2), ("Q5", 2), ("q1_approx", 1))
#: latency limit of the open-loop phase, from due time.
SLO_MS = 50.0


def slo_miss_ratio(records) -> float:
    """Share of open-loop ops over the limit; an op that raised counts as over it."""
    missed = sum(1 for r in records if r.error is not None or r.latency * 1e3 > SLO_MS)
    return missed / len(records)


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory) for name in names
    )


class ServeMix(TpchWorkload):
    name = "serve_mix"
    scale_factor = 0.02
    with_sample = True
    connections = 2
    # The open loop's latencies are per-layer metrics, not end-to-end ones:
    # on the sandbox their run-to-run spread is ~25 %, over any bound the
    # benchmark may set, so end-to-end numbers come from the closed loop.
    open_loop_rate = 100.0
    surface_span = "client.query"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.catalog_dir: Optional[str] = None
        self.server: Optional[procs.ServedEngine] = None
        self.clients: List = []
        self._statements: List = []
        self._walk_engine = None

    # -- schedule --------------------------------------------------------------

    def _op(self, template: str, rng) -> Op:
        if template == "q6_param":
            return q6_param_op(Q6_PARAM_VALUES[int(rng.integers(len(Q6_PARAM_VALUES)))])
        if template == "q1_approx":
            return q1_approx_op()
        return exact_op(template)

    def cold_ops(self) -> List[Op]:
        rng = np.random.default_rng([self.seed, 0xC01D])
        return [self._op(template, rng) for template, _ in MIX]

    def pass_ops(self, index: int) -> List[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = [self._op(template, rng) for template, count in MIX for _ in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    # -- the program under test --------------------------------------------------

    def setup(self) -> None:
        with self.timed("register_s"):
            catalog = self.fresh_catalog()
        engine = repro.connect(catalog=catalog)
        self.create_sample(engine)
        self.catalog_dir = tempfile.mkdtemp(prefix="catalog-", dir=self.scratch)
        with self.timed("save_s"):
            save_catalog(catalog, self.catalog_dir)
        with self.timed("boot_s"):
            self.server = procs.ServedEngine(self.catalog_dir, max_concurrency=2)
        for _ in range(self.connections):
            client = repro.connect(f"tcp://{self.server.host}:{self.server.port}")
            self.clients.append(client)
            self._statements.append(client.prepare(Q6_PARAM_SQL))

    def surface(self):
        return self.clients[0]

    def walk_engine(self):
        """A local engine over the catalog the server loaded (traced run only)."""
        if self._walk_engine is None:
            with self.timed("load_catalog_s"):
                catalog = load_catalog(self.catalog_dir)
            self._walk_engine = repro.connect(catalog=catalog)
        return self._walk_engine

    def run_op(self, op: Op, connection: int = 0):
        if op.kind == "prepared":
            return self._statements[connection].execute(list(op.params))
        return self.clients[connection].query(op.sql, **op.query_kwargs)

    def program_pids(self) -> Sequence[int]:
        return [self.server.pid]

    def teardown(self) -> None:
        try:
            for client in self.clients:
                client.close()
        finally:
            self.clients, self._statements, self._walk_engine = [], [], None
            if self.server is not None:
                self.server.stop()
                self.server = None
            if self.catalog_dir is not None:
                shutil.rmtree(self.catalog_dir, ignore_errors=True)
                self.catalog_dir = None

    # -- per-layer --------------------------------------------------------------

    def layer_metrics(self, ctx) -> dict:
        out = super().layer_metrics(ctx)
        lateness = [r.lateness * 1e3 for r in ctx.open_loop]
        from_due = [r.latency * 1e3 for r in ctx.open_loop]
        out.update({
            "server.open_loop_p50_ms": float(np.median(from_due)),
            "server.open_loop_p95_ms": float(np.percentile(from_due, 95.0)),
            # tcp minus in-process, on the shortest op: the client.query
            # span's self time once its local core.query child is taken out
            "server.rtt_overhead_ms": ctx.span_ms("client.query", "q6_param", own=True),
            "server.cpu_s_per_kop": ctx.program_cpu_s / len(ctx.untraced) * 1e3,
            "server.slo_miss_ratio": slo_miss_ratio(ctx.open_loop),
            "client.send_lateness_p95_ms": float(np.percentile(lateness, 95.0)),
            "storage.load_catalog_s": self.parts["load_catalog_s"],
            "storage.disk_bytes_per_user_byte": _dir_bytes(self.catalog_dir) / self.user_bytes(),
            "server.boot_s": self.parts["boot_s"],
        })
        return out
