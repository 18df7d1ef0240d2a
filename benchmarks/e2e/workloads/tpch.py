"""What the TPC-H workloads share: inputs, templates, and the SQL oracle."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.pairwise import PairwiseEngine
from repro.datasets import TPCH_QUERIES, generate_tpch
from repro.storage import Catalog, Table

from .. import oracle, stats
from ..schedule import Op, Record
from .base import Workload

Q6_PARAM_SQL = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01'
  AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < ?
"""
#: the values the prepared statement's ``?`` rotates through: few enough
#: that every one stays in the plan cache (its key includes the literal).
Q6_PARAM_VALUES = (20, 24, 28, 32)

SAMPLE_FRACTION = 0.01
#: an approximate cell is checked against the exact answer only where the
#: sample holds enough rows of its group for the CLT interval to mean
#: anything, and then against a multiple of the engine's own half-width:
#: a 95% interval misses one cell in twenty by design, and a miss that is
#: by design must not count as a failed op.
APPROX_MIN_SUPPORT = 30
APPROX_WIDTHS = 4.0


def exact_op(name: str) -> Op:
    return Op(template=name, key=(name,), sql=TPCH_QUERIES[name])


def q6_param_op(value: int) -> Op:
    return Op(
        template="q6_param", key=("q6_param", value), kind="prepared",
        sql=Q6_PARAM_SQL, params=(value,),
        inline_sql=Q6_PARAM_SQL.replace("?", str(value)),
    )


def q1_approx_op() -> Op:
    return Op(template="q1_approx", key=("q1_approx",), sql=TPCH_QUERIES["Q1"], approx=True)


class TpchWorkload(Workload):
    """A workload over ``generate_tpch(scale_factor, seed)``."""

    scale_factor = 0.01
    #: create the 1% ``lineitem`` sample at set-up (workloads with ``q1_approx``).
    with_sample = False

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.inputs: Dict[str, Tuple[object, Dict[str, np.ndarray]]] = {}
        self._reference_engine: Optional[PairwiseEngine] = None
        #: seconds the pairwise baseline took per reference it computed.
        self.pairwise_seconds: Dict[Tuple, float] = {}
        #: (relative error, inside the reported interval) per checked approx cell.
        self.approx_cells: List[Tuple[float, bool]] = []

    def generate(self) -> None:
        catalog = generate_tpch(scale_factor=self.scale_factor, seed=self.seed)
        self.inputs = {
            name: (table.schema, dict(table.columns))
            for name, table in catalog.tables.items()
        }

    def fresh_catalog(self) -> Catalog:
        """Register fresh ``Table`` objects (no cached tries) in a new catalog."""
        catalog = Catalog()
        for schema, columns in self.inputs.values():
            catalog.register(Table(schema, dict(columns)))
        return catalog

    def user_bytes(self) -> int:
        return sum(
            int(column.nbytes) for _, columns in self.inputs.values()
            for column in columns.values()
        )

    def create_sample(self, engine) -> None:
        engine.create_sample("lineitem", SAMPLE_FRACTION, seed=self.seed)

    # -- oracle ----------------------------------------------------------------

    def reference_engine(self) -> PairwiseEngine:
        if self._reference_engine is None:
            self._reference_engine = PairwiseEngine(self.fresh_catalog())
        return self._reference_engine

    def compute_reference(self, op: Op):
        engine = self.reference_engine()
        start = time.perf_counter()
        result = engine.query(op.text)
        self.pairwise_seconds[op.key] = time.perf_counter() - start
        return oracle.fingerprint(result)

    def observe(self, op: Op, result):
        if not op.approx:
            return super().observe(op, result)
        meta = result.approx or {}
        errors = {
            name: info.get("error") for name, info in (meta.get("columns") or {}).items()
        }
        groups = [n for n in result.names if n not in errors]
        rows = {
            tuple(str(result.columns[g][i]) for g in groups): {
                name: float(result.columns[name][i]) for name in errors
            }
            for i in range(result.num_rows)
        }
        return oracle.fingerprint(result), {
            "approx": bool(meta.get("applied")), "groups": groups,
            "rows": rows, "errors": errors,
        }

    def check(self, record: Record) -> Optional[str]:
        if record.error is None and record.op.approx:
            return self._check_approx(record)
        return super().check(record)

    def _check_approx(self, record: Record) -> Optional[str]:
        """An approximate answer is checked against its own reported interval."""
        seen = record.extra
        if not seen.get("approx"):
            return "result carries no approx block"
        if "exact" not in self._references:
            exact = self.reference_engine().query(record.op.sql)
            self._references["exact"] = {
                tuple(str(exact.columns[g][i]) for g in seen["groups"]): {
                    name: float(exact.columns[name][i]) for name in seen["errors"]
                }
                for i in range(exact.num_rows)
            }
        exact_rows = self._references["exact"]
        first_check = not self.approx_cells
        for group, cells in seen["rows"].items():
            truth = exact_rows.get(group)
            if truth is None:
                return f"approximate group {group} is not in the exact answer"
            if truth.get("count_order", 0.0) * SAMPLE_FRACTION < APPROX_MIN_SUPPORT:
                continue
            for name, half_width in seen["errors"].items():
                if half_width is None:
                    continue
                off = abs(cells[name] - truth[name])
                if first_check:
                    self.approx_cells.append(
                        (off / abs(truth[name]) if truth[name] else 0.0, off <= half_width)
                    )
                if off > APPROX_WIDTHS * half_width + 1e-9:
                    return (
                        f"approximate {name}{group} is {off:.6g} from exact, over "
                        f"{APPROX_WIDTHS:g}x its reported half-width {half_width:.6g}"
                    )
        return None

    # -- per-layer ---------------------------------------------------------------

    def layer_metrics(self, ctx) -> Dict[str, float]:
        """The paper's "within 2x of HyPer" ratio, and the approximate tier's numbers."""
        by_template: Dict[str, List[float]] = {}
        for record in ctx.untraced:
            seconds = self.pairwise_seconds.get(record.op.key)
            if seconds is not None:
                by_template.setdefault(record.op.template, []).append(seconds * 1e3)
        ratios = [
            ctx.median_ms(template) / float(np.median(times))
            for template, times in by_template.items()
        ]
        out = {"baselines.pairwise_geomean_ratio": stats.geomean(ratios) if ratios else 0.0}
        if self.with_sample and self.approx_cells:
            exact_ms = ctx.median_ms("Q1")
            if not exact_ms:  # exact Q1 is not in this mix: time it now
                exact_ms = stats.timed_median(
                    lambda: self.surface().query(TPCH_QUERIES["Q1"]), 3
                ) * 1e3
            out.update({
                "approx.q1_speedup": exact_ms / ctx.median_ms("q1_approx"),
                "approx.q1_rel_error": float(np.median([off for off, _ in self.approx_cells])),
                "approx.q1_ci_covered": (
                    sum(1 for _, inside in self.approx_cells if inside) / len(self.approx_cells)
                ),
            })
        return out
