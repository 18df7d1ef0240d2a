"""Approximate query processing: catalog samples, rewrite, error bars.

LevelHeaded's whole BI surface is annotated aggregation -- ``SUM`` /
``COUNT`` / ``AVG`` over semiring annotations -- which makes
sampling-based approximation a one-multiplication affair: run the same
plan over a materialized sample and scale the aggregate annotations by
the inverse sampling fraction.  This package supplies the three layers:

* :mod:`~repro.approx.sampler` draws deterministic, seeded uniform or
  stratified samples as first-class catalog tables
  (``engine.create_sample``);
* :mod:`~repro.approx.rewrite` swaps base tables for usable samples in
  a parsed statement and scales the scalable aggregates
  (``engine.query(..., approx=...)`` / the ``APPROXIMATE`` SQL prefix);
* :mod:`~repro.approx.estimate` turns the rewritten query's companion
  aggregates into CLT 95% confidence intervals attached to the result
  (``result.approx``).

Policy values (``EngineConfig.approx`` / per-query ``approx=``):
``"never"`` runs exact, ``"force"`` runs on samples whenever a usable
one covers a touched table, and ``"allow"`` runs exact but lets the
governor *degrade* an overload-rejected query to approximate instead
of failing it with
:class:`~repro.errors.RetryableAdmissionError`.
"""

from .estimate import apply_estimation
from .rewrite import (
    APPROX_POLICIES,
    ApproxSpec,
    SampleUse,
    has_usable_sample,
    maybe_rewrite,
    normalize_policy,
)
from .sampler import build_sample, default_sample_name

__all__ = [
    "APPROX_POLICIES",
    "ApproxSpec",
    "SampleUse",
    "apply_estimation",
    "build_sample",
    "default_sample_name",
    "has_usable_sample",
    "maybe_rewrite",
    "normalize_policy",
]
