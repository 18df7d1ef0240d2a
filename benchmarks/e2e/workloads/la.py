"""``la_graph``: the paper's LA half and its WCOJ worst case."""

from __future__ import annotations

from typing import List

import numpy as np
from scipy import sparse as sp

import repro
from repro.baselines.la_package import LAPackage
from repro.datasets import sparse_profile
from repro.la import blas, matmul_sql, matvec_sql

from .. import oracle, stats
from ..schedule import Op
from .base import Workload
from .graph import TRIANGLE_SQL, graph_tables, triangle_reference

#: sized so one pass of the five templates takes ~0.2 s: the cap on a
#: run's length still leaves >= 200 timed ops (p95 needs them).
SPARSE_SCALE = 0.16
DENSE_N = 768  # DMM ~ 20 ms on one BLAS thread


class LaGraph(Workload):
    name = "la_graph"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.engine = None
        self._ops: List[Op] = []

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 0x1A])
        (rows, cols, values), self.sparse_n = sparse_profile(
            "nlp240", scale=SPARSE_SCALE, seed=self.seed
        )
        self.coo = (rows, cols, values)
        self.sparse_x = rng.normal(size=self.sparse_n)
        self.dense = rng.normal(size=(DENSE_N, DENSE_N))
        self.dense_x = rng.normal(size=DENSE_N)
        self.graph = graph_tables(rng)
        self._ops = [
            Op(template="smm", key=("smm",), sql=matmul_sql("sm")),
            Op(template="smv", key=("smv",), sql=matvec_sql("sm", "sx")),
            Op(template="dmm", key=("dmm",), sql=matmul_sql("dm")),
            Op(template="dmv", key=("dmv",), sql=matvec_sql("dm", "dx")),
            Op(template="triangle", key=("triangle",), sql=TRIANGLE_SQL),
        ]

    def cold_ops(self) -> List[Op]:
        return list(self._ops)

    def pass_ops(self, index: int) -> List[Op]:
        order = np.random.default_rng([self.seed, index]).permutation(len(self._ops))
        return [self._ops[i] for i in order]

    def setup(self) -> None:
        with self.timed("register_s"):
            engine = repro.connect()
            rows, cols, values = self.coo
            engine.register_matrix(
                "sm", rows=rows, cols=cols, values=values, n=self.sparse_n, domain="sdim"
            )
            engine.register_vector("sx", self.sparse_x, domain="sdim")
            engine.register_matrix("dm", self.dense, domain="ddim")
            engine.register_vector("dx", self.dense_x, domain="ddim")
            for schema, columns in self.graph.values():
                engine.create_table(schema, **columns)
        self.engine = engine

    def surface(self):
        return self.engine

    def run_op(self, op: Op, connection: int = 0):
        return self.engine.query(op.sql)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None

    # -- oracle: scipy/numpy, never the engine ----------------------------------

    def la_package(self) -> LAPackage:
        package = LAPackage()
        package.load_sparse("sm", *self.coo, self.sparse_n)
        package.load_vector("sx", self.sparse_x)
        package.load_dense("dm", self.dense)
        package.load_vector("dx", self.dense_x)
        return package

    def compute_reference(self, op: Op):
        package = self.la_package()
        template = op.template
        if template == "smm":
            product = package.smm("sm").tocoo()
            return oracle.array_fingerprint(i=product.row, j=product.col, v=product.data)
        if template == "smv":
            csr = sp.coo_matrix(
                (self.coo[2], (self.coo[0], self.coo[1])), shape=(self.sparse_n,) * 2
            ).tocsr()
            occupied = np.flatnonzero(np.diff(csr.indptr))
            return oracle.array_fingerprint(i=occupied, v=package.smv("sm", "sx")[occupied])
        if template == "dmm":
            product = package.dmm("dm")
            i, j = np.indices(product.shape)
            return oracle.array_fingerprint(i=i.ravel(), j=j.ravel(), v=product.ravel())
        if template == "dmv":
            return oracle.array_fingerprint(i=np.arange(DENSE_N), v=package.dmv("dm", "dx"))
        return triangle_reference(self.graph["edges"][1])

    # -- per-layer ---------------------------------------------------------------

    def layer_metrics(self, ctx) -> dict:
        """The paper's two LA claims: <2 % over raw BLAS, ~2.5x of the LA package."""
        package = self.la_package()
        gemm_ms = stats.timed_median(lambda: blas.gemm(self.dense, self.dense), 5) * 1e3
        smm_ms = stats.timed_median(lambda: package.smm("sm"), 5) * 1e3
        return {
            "la.dense_overhead_ratio": ctx.median_ms("dmm") / gemm_ms,
            "la.smm_vs_scipy_ratio": ctx.median_ms("smm") / smm_ms,
        }
