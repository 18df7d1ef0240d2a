"""``ingest_churn``: cycles of write-then-read against one engine."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.storage import Table

from .. import oracle
from ..schedule import Op
from .bi import LocalTpchWorkload
from .tpch import exact_op

SUM_TOTALPRICE_SQL = "SELECT sum(o_totalprice) AS total FROM orders"
#: share of ``orders`` rows whose ``o_totalprice`` each write perturbs.
PERTURBED_SHARE = 0.005


class IngestChurn(LocalTpchWorkload):
    name = "ingest_churn"
    scale_factor = 0.02

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self._columns: Dict[int, np.ndarray] = {}

    # The write perturbs only o_totalprice, which Q3/Q10/Q6 never read:
    # their answers stay the seed's (one reference each), while the read
    # that follows the write must see the new column (read-your-writes).

    def _totalprice(self, cycle: int) -> np.ndarray:
        """The ``o_totalprice`` column cycle ``cycle`` writes (pure in seed, cycle)."""
        base = self.inputs["orders"][1]["o_totalprice"]
        rng = np.random.default_rng([self.seed, 0x1E, cycle + 1])
        rows = rng.choice(base.size, size=max(1, int(base.size * PERTURBED_SHARE)), replace=False)
        column = base.copy()
        column[rows] = np.round(column[rows] * rng.uniform(0.5, 1.5, size=rows.size), 2)
        return column

    def _cycle(self, cycle: int) -> List[Op]:
        # the column is made here, on the harness's time, not inside the timed write
        self._columns[cycle] = self._totalprice(cycle)
        return [
            Op(template="replace_orders", key=("replace", cycle), kind="replace"),
            Op(template="sum_totalprice", key=("sum_totalprice", cycle), sql=SUM_TOTALPRICE_SQL),
            Op(template="q3_after_write", key=("Q3",), sql=exact_op("Q3").sql),
            exact_op("Q10"),
            exact_op("Q6"),
            Op(template="q3_again", key=("Q3",), sql=exact_op("Q3").sql),
        ]

    def cold_ops(self) -> List[Op]:
        return self._cycle(-1)

    def pass_ops(self, index: int) -> List[Op]:
        return self._cycle(index)  # a cycle's order is its meaning: never shuffled

    def run_op(self, op: Op, connection: int = 0):
        if op.kind != "replace":
            return super().run_op(op, connection)
        schema, columns = self.inputs["orders"]
        replaced: Dict[str, np.ndarray] = dict(columns)
        replaced["o_totalprice"] = self._columns.pop(op.key[1])
        return self.engine.replace_table(Table(schema, replaced))

    def compute_reference(self, op: Op):
        if op.template == "sum_totalprice":
            total = float(self._totalprice(op.key[1]).sum())
            return oracle.array_fingerprint(total=np.array([total]))
        return super().compute_reference(op)
