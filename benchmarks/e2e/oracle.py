"""Correctness oracle: fingerprints of results and their comparison.

Every timed op leaves a fingerprint -- row count plus one float checksum
per column -- which is compared after the timed window with the
fingerprint of a reference answer computed independently of the engine
(``repro.baselines.pairwise`` for SQL, numpy/scipy for LA and the
triangle count).  References are computed after the window, and after
peak memory has been read, so the oracle's own time and memory are in
no metric.  A mismatch is a failed op, never a crash.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

RTOL = 1e-9

#: (row count, {column name: checksum})
Fingerprint = Tuple[int, Dict[str, float]]


def column_checksum(column) -> float:
    """Order-independent float checksum of one result column.

    Numeric columns sum their values; text columns sum their lengths
    (cheap enough to run between timed ops, and any dropped, duplicated
    or truncated value moves it).
    """
    array = np.asarray(column)
    if array.dtype.kind in "biuf":
        return float(array.sum(dtype=np.float64))
    return float(np.char.str_len(array.astype(str)).sum())


def fingerprint(result) -> Fingerprint:
    """Fingerprint of a ``ResultTable`` (or anything with names/columns)."""
    return (
        int(result.num_rows),
        {name: column_checksum(result.columns[name]) for name in result.names},
    )


def array_fingerprint(**columns) -> Fingerprint:
    """Fingerprint of reference columns given as arrays."""
    lengths = {len(np.atleast_1d(c)) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError("reference columns have different lengths")
    return (lengths.pop(), {n: column_checksum(np.atleast_1d(c)) for n, c in columns.items()})


def mismatch(got: Optional[Fingerprint], want: Fingerprint) -> Optional[str]:
    """Why ``got`` is not ``want`` (None when they agree to ``RTOL``).

    Every column of the reference must be in the result and agree; the
    result may carry more.
    """
    if got is None:
        return "no result"
    if got[0] != want[0]:
        return f"rows {got[0]} != {want[0]}"
    for name in want[1]:
        if name not in got[1]:
            return f"column {name!r} missing"
        if not math.isclose(got[1][name], want[1][name], rel_tol=RTOL, abs_tol=1e-9):
            return f"column {name!r} checksum {got[1][name]!r} != {want[1][name]!r}"
    return None
