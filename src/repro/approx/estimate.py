"""Turn companion aggregates into CLT error bars on the result.

Runs after decode/finalize, on the plain :class:`ResultTable` of a
rewritten query: the companion columns (``__approx_*``) hold each
group's raw sample moments, and this pass converts them into one
+/- half-width per estimable output column under the Bernoulli
sampling design, strips the companions, and attaches the metadata as
``result.approx``.

Variance estimates (``f`` = effective sampling fraction, ``z`` the
normal quantile for the confidence level):

* ``COUNT``: the scaled estimate is ``T = n/f`` for observed group
  count ``n``; ``Var = n (1-f) / f^2``, so the half-width is
  ``z * sqrt(T (1-f) / f)`` -- computable from the estimate alone.
* ``SUM``: with per-row values ``v``, ``Var = (1-f)/f^2 * sum(v^2)``
  over the sample (the Horvitz-Thompson estimator for Bernoulli
  designs), so the half-width is ``z * sqrt(m2 (1-f)) / f`` with
  ``m2 = sum(v^2)`` from the companion column.
* ``AVG``: the ratio estimator ``s/n``; with sample variance
  ``s^2 = (m2/n - mean^2) * n/(n-1)``, the half-width is
  ``z * sqrt((1-f) s^2 / n)`` (finite-population-corrected mean CI).

All three collapse to zero width at ``fraction = 1.0``, where the
sample *is* the base table and every estimate is exact.  ``MIN``/``MAX``
pass through unscaled and are flagged non-scalable (a sample's extremum
only bounds the true one); composite expressions are consistent
estimates but carry no closed-form interval.  Multi-sample joins use
the product fraction -- per-table designs are not separated out.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from .rewrite import ApproxSpec

#: two-sided 95% normal quantile (the only confidence level emitted).
Z95 = 1.959963984540054


def _half_widths(result, spec: ApproxSpec) -> Dict[str, Optional[float]]:
    """Per-column scalar +/- at 95%: the max half-width over groups."""
    f = spec.fraction
    halves: Dict[str, Optional[float]] = {}
    for est in spec.columns:
        if not est.scalable:
            halves[est.name] = None
            continue
        if f >= 1.0:
            halves[est.name] = 0.0
            continue
        if est.kind == "count":
            scaled = np.asarray(result.columns[est.name], dtype=np.float64)
            var = np.maximum(scaled, 0.0) * (1.0 - f) / f
        elif est.kind == "sum":
            m2 = np.asarray(result.columns[est.m2], dtype=np.float64)
            var = np.maximum(m2, 0.0) * (1.0 - f) / (f * f)
        else:  # avg
            m2 = np.asarray(result.columns[est.m2], dtype=np.float64)
            s = np.asarray(result.columns[est.raw_sum], dtype=np.float64)
            n = np.asarray(result.columns[est.n], dtype=np.float64)
            n_safe = np.maximum(n, 1.0)
            mean = s / n_safe
            s2 = np.maximum(m2 / n_safe - mean * mean, 0.0) * (
                n_safe / np.maximum(n_safe - 1.0, 1.0)
            )
            var = (1.0 - f) * s2 / n_safe
        half = Z95 * np.sqrt(var)
        halves[est.name] = float(np.max(half)) if half.size else 0.0
    return halves


def apply_estimation(result, spec: ApproxSpec, mode: str = "forced") -> Dict:
    """Attach error bars to ``result`` in place; return the metadata.

    Strips the companion columns, restores integer dtype on bare
    ``COUNT`` outputs (scaling turned them float; at any fraction the
    scaled count rounds back to an integer estimate), computes the
    per-column half-widths, and sets ``result.approx``.
    """
    halves = _half_widths(result, spec)

    for est in spec.columns:
        if est.kind == "count":
            column = np.asarray(result.columns[est.name])
            if column.dtype.kind == "f":
                result.columns[est.name] = np.rint(column).astype(np.int64)

    for name in spec.companions:
        result.columns.pop(name, None)
        if name in result.names:
            result.names.remove(name)

    metadata = {
        "applied": True,
        "mode": mode,
        "confidence": spec.confidence,
        "fraction": spec.fraction,
        "scale": spec.scale,
        "samples": [use.as_dict() for use in spec.samples],
        "columns": {
            est.name: {
                "kind": est.kind,
                "scaled": est.scaled,
                "scalable": est.scalable,
                "error": halves[est.name],
            }
            for est in spec.columns
        },
    }
    result.approx = metadata
    return metadata
