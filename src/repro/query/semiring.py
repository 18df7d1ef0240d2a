"""Commutative semirings for annotated relations (AJAR, Section II-C).

AJAR annotates each tuple with a value from a commutative semiring
``(D, ⊕, ⊗, 0, 1)``: joining relations multiplies annotations, and
aggregations sum them along the aggregation ordering.  The engine's
SQL aggregates run over ``SUM_PRODUCT`` (with ``MIN``/``MAX`` handled
as alternate additive operators on single-relation slots); the other
instances exercise the framework's generality (message passing /
shortest paths in the AJAR paper) and are used by tests and examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """A commutative semiring over numpy-compatible scalars.

    ``add_reduce`` folds an array along axis 0 (used by vectorized
    aggregation tails); ``add``/``mul`` are the binary operators.
    """

    name: str
    zero: float
    one: float
    add: Callable
    mul: Callable
    add_reduce: Callable

    def fold_add(self, values: np.ndarray) -> float:
        if values.size == 0:
            return self.zero
        return self.add_reduce(values)


SUM_PRODUCT = Semiring(
    name="sum_product",
    zero=0.0,
    one=1.0,
    add=np.add,
    mul=np.multiply,
    add_reduce=np.sum,
)

#: (min, +) -- shortest paths / Viterbi-style dynamic programs.
MIN_PLUS = Semiring(
    name="min_plus",
    zero=math.inf,
    one=0.0,
    add=np.minimum,
    mul=np.add,
    add_reduce=np.min,
)

#: (max, *) -- most-probable derivations.
MAX_PRODUCT = Semiring(
    name="max_product",
    zero=0.0,
    one=1.0,
    add=np.maximum,
    mul=np.multiply,
    add_reduce=np.max,
)

#: (max, min) -- bottleneck / widest-path problems.
MAX_MIN = Semiring(
    name="max_min",
    zero=-math.inf,
    one=math.inf,
    add=np.maximum,
    mul=np.minimum,
    add_reduce=np.max,
)

BY_NAME = {
    s.name: s for s in (SUM_PRODUCT, MIN_PLUS, MAX_PRODUCT, MAX_MIN)
}


def check_semiring_axioms(semiring: Semiring, samples) -> bool:
    """Verify identity/annihilation, associativity, commutativity, and
    distributivity on concrete samples (used by property tests)."""
    for a in samples:
        if semiring.add(a, semiring.zero) != a:
            return False
        one_result = semiring.mul(a, semiring.one)
        if one_result != a:
            return False
        if semiring.mul(a, semiring.zero) != semiring.zero:
            return False
    for a in samples:
        for b in samples:
            if semiring.add(a, b) != semiring.add(b, a):
                return False
            if semiring.mul(a, b) != semiring.mul(b, a):
                return False
            for c in samples:
                left = semiring.mul(a, semiring.add(b, c))
                right = semiring.add(semiring.mul(a, b), semiring.mul(a, c))
                if not _close(left, right):
                    return False
                if not _close(
                    semiring.add(semiring.add(a, b), c),
                    semiring.add(a, semiring.add(b, c)),
                ):
                    return False
    return True


def _close(x, y) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))
