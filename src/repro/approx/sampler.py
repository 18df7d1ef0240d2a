"""Deterministic seeded sampling of catalog tables.

Samples are materialized as ordinary :class:`~repro.storage.table.Table`
objects over the *same schema attributes and key domains* as their base
table, so a rewritten query binds and executes against a sample exactly
as it would against the base -- same dictionaries, same trie machinery,
same plans.  Sampling is a pure function of ``(base rows, fraction,
kind, strata, seed)``: the same inputs always produce byte-identical
sample columns, which is what makes samples reproducible across
processes and safe to persist.

Two kinds:

* ``uniform`` -- independent Bernoulli row selection at probability
  ``fraction`` (the Horvitz-Thompson design the 1/fraction scale-up in
  :mod:`~repro.approx.rewrite` is unbiased for);
* ``stratified`` -- per-group sampling over the ``strata`` columns,
  taking ``max(1, round(fraction * group_rows))`` rows per group, so
  every stratum key survives into the sample no matter how rare.  Rare
  strata are deliberately over-sampled relative to ``fraction`` (their
  scaled estimates skew conservative); the win is that group-by results
  over the strata columns never lose groups the way a uniform sample
  does.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import SchemaError
from ..storage.schema import Schema
from ..storage.table import Table

SAMPLE_KINDS = ("uniform", "stratified")


def default_sample_name(base: str, fraction: float, kind: str) -> str:
    """The canonical sample-table name: a valid SQL identifier."""
    pct = f"{fraction:g}".replace(".", "_").replace("-", "m")
    return f"{base}__sample__{kind}__{pct}"


def _stratified_rows(
    table: Table, strata: Tuple[str, ...], fraction: float, rng: np.random.Generator
) -> np.ndarray:
    from ..xcution.codes import group_runs  # xcution.plan imports this package

    columns = []
    for name in strata:
        table.schema.attribute(name)  # raises on unknown names
        columns.append(np.asarray(table.columns[name]))
    # group iteration order is deterministic: strata ascending, rows in
    # table order inside each
    order, boundaries = group_runs(columns)
    picked = []
    for start, stop in zip(boundaries, np.r_[boundaries[1:], order.size]):
        group = order[start:stop]
        take = max(1, int(round(fraction * group.size)))
        take = min(take, group.size)
        picked.append(rng.choice(group, size=take, replace=False))
    return np.sort(np.concatenate(picked)) if picked else np.empty(0, dtype=np.int64)


def build_sample(
    table: Table,
    name: str,
    fraction: float,
    kind: str = "uniform",
    strata: Tuple[str, ...] = (),
    seed: int = 0,
) -> Table:
    """Materialize one deterministic sample of ``table`` as a new table.

    Rows keep their base-table order, so two calls with identical
    arguments return byte-identical columns.
    """
    if not (0.0 < fraction <= 1.0):
        raise SchemaError(
            f"sample fraction must be in (0, 1], got {fraction!r}"
        )
    if kind not in SAMPLE_KINDS:
        raise SchemaError(
            f"sample kind must be one of {SAMPLE_KINDS}, got {kind!r}"
        )
    if kind == "stratified" and not strata:
        raise SchemaError("stratified sampling needs strata=[columns]")
    if kind == "uniform" and strata:
        raise SchemaError("strata= only applies to kind='stratified'")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        # Bernoulli design: every row enters independently with
        # probability ``fraction`` (rng.random() < 1.0 always holds, so
        # fraction=1.0 reproduces the base table exactly)
        mask = rng.random(table.num_rows) < fraction
        indices = np.flatnonzero(mask)
    else:
        indices = _stratified_rows(table, tuple(strata), fraction, rng)
    schema = Schema(name, list(table.schema.attributes))
    columns = {
        attr.name: np.ascontiguousarray(table.columns[attr.name][indices])
        for attr in table.schema.attributes
    }
    return Table(schema, columns)
