"""``bi_hot`` and ``bi_adhoc``: one plan cache, used in opposite ways."""

from __future__ import annotations

from typing import List

import numpy as np

import repro
from repro.datasets import TPCH_QUERIES

from ..schedule import Op
from .tpch import Q6_PARAM_SQL, Q6_PARAM_VALUES, TpchWorkload, exact_op, q1_approx_op, q6_param_op


class LocalTpchWorkload(TpchWorkload):
    """In-process ``repro.connect(catalog=...)`` with one closed-loop caller."""

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.engine = None
        self._prepared = None

    def setup(self) -> None:
        with self.timed("register_s"):
            catalog = self.fresh_catalog()
        self.engine = repro.connect(catalog=catalog)
        if self.with_sample:
            self.create_sample(self.engine)
        self._prepared = None

    def surface(self):
        return self.engine

    def run_op(self, op: Op, connection: int = 0):
        if op.kind == "prepared":
            if self._prepared is None:
                self._prepared = self.engine.prepare(op.sql)
            return self._prepared.execute(list(op.params))
        return self.engine.query(op.sql, **op.query_kwargs)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None
        self._prepared = None


class BiHot(LocalTpchWorkload):
    name = "bi_hot"
    scale_factor = 0.03
    with_sample = True

    def setup(self) -> None:
        super().setup()
        # preparing is part of getting ready, like any session would do
        self._prepared = self.engine.prepare(Q6_PARAM_SQL)

    def cold_ops(self) -> List[Op]:
        return [exact_op(name) for name in TPCH_QUERIES] + [
            q6_param_op(Q6_PARAM_VALUES[0]), q1_approx_op(),
        ]

    def pass_ops(self, index: int) -> List[Op]:
        ops = [exact_op(name) for name in TPCH_QUERIES] + [
            q6_param_op(Q6_PARAM_VALUES[index % len(Q6_PARAM_VALUES)]), q1_approx_op(),
        ]
        order = np.random.default_rng([self.seed, index]).permutation(len(ops))
        return [ops[i] for i in order]


# -- bi_adhoc ------------------------------------------------------------------
#
# Each shape has a few answer-changing literal *classes* (one reference
# answer each) and a per-op *nonce*: a bound no row reaches, so the text
# is new on every op while the answer stays its class's.

_NONCE_BASE = 1_000_000_000

_ADHOC_Q3 = """
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{cls}'
  AND c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate < date '1995-03-15' AND l_shipdate > date '1995-03-15'
  AND o_totalprice < {nonce}
GROUP BY l_orderkey, o_orderdate, o_shippriority
"""
_ADHOC_Q5 = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '{cls}'
  AND o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'
  AND o_totalprice < {nonce}
GROUP BY n_name
"""
_ADHOC_Q6 = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < {cls}
  AND l_extendedprice < {nonce}
"""
_ADHOC_Q8 = """
SELECT extract(year from o_orderdate) AS o_year,
       sum(case when n2.n_name = '{cls}' then 1 else 0 end
           * l_extendedprice * (1 - l_discount))
       / sum(l_extendedprice * (1 - l_discount)) AS mkt_share
FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
  AND l_orderkey = o_orderkey AND o_custkey = c_custkey
  AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
  AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
  AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31'
  AND p_type = 'ECONOMY ANODIZED STEEL'
  AND o_totalprice < {nonce}
GROUP BY extract(year from o_orderdate)
"""
_ADHOC_Q10 = """
SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= date '{cls}-01' AND o_orderdate < date '{cls}-28'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
  AND o_totalprice < {nonce}
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
"""

ADHOC_SHAPES = {
    "adhoc_q3": (_ADHOC_Q3, ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")),
    "adhoc_q5": (_ADHOC_Q5, ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")),
    "adhoc_q6": (_ADHOC_Q6, (20, 22, 24, 26, 28)),
    "adhoc_q8": (_ADHOC_Q8, ("ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES")),
    "adhoc_q10": (_ADHOC_Q10, ("1993-10", "1993-11", "1993-12", "1994-01", "1994-02")),
}


class BiAdhoc(LocalTpchWorkload):
    name = "bi_adhoc"
    scale_factor = 0.01

    def cold_ops(self) -> List[Op]:
        """One op per shape, on a seeded class (nonces 0..4)."""
        rng = np.random.default_rng([self.seed, 0xC01D])
        return [
            Op(template=template, key=(template, cls),
               sql=text.format(cls=cls, nonce=_NONCE_BASE + position))
            for position, (template, (text, classes)) in enumerate(ADHOC_SHAPES.items())
            for cls in [classes[int(rng.integers(len(classes)))]]
        ]

    def pass_ops(self, index: int) -> List[Op]:
        """Every class of every shape once, in seeded order: each pass is the same work."""
        pairs = [
            (template, text, cls)
            for template, (text, classes) in ADHOC_SHAPES.items() for cls in classes
        ]
        first = _NONCE_BASE + (index + 1) * len(pairs)
        ops = [
            Op(template=template, key=(template, cls),
               sql=text.format(cls=cls, nonce=first + position))
            for position, (template, text, cls) in enumerate(pairs)
        ]
        return [ops[i] for i in np.random.default_rng([self.seed, index]).permutation(len(ops))]
