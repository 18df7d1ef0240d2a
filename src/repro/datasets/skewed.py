"""A Zipf-skewed join workload that breaks independence estimates.

The optimizer's cardinality model (System-R pairwise estimates,
per-edge distinct counts, GHD child-subtree minima) assumes uniformity
and independence -- exactly the assumptions a power-law column
violates.  This generator builds a cyclic core plus a skewed appendage:

* ``fact(f_userkey, f_itemkey)``, ``link(l_itemkey, l_suppkey)``, and
  ``deal(d_suppkey, d_userkey)`` form a **triangle** over user, item,
  and supplier (FHW 1.5, so the GHD keeps them in one root bag rather
  than compressing the whole query into a single node);
* ``supp(s_suppkey, s_regionkey)`` assigns each supplier a region
  drawn from a **Zipf** distribution, so a couple of *hot* regions
  hold most suppliers;
* ``region(r_regionkey, r_hot)`` marks exactly those head regions with
  ``r_hot = 1``.

The supplier/region pair hangs off the root as its own GHD child node.
Filtering ``r_hot = 1`` keeps only ``n_hot`` region *rows* -- so a
static estimator that bounds the child by its smallest post-filter
relation predicts a handful of suppliers -- but Zipf skew makes those
regions hold the *majority of all suppliers*, so the executed child
emits dozens of distinct supplier keys.  The resulting q-error drives
the :mod:`repro.optimizer.feedback` drift rule, and the corrected
recompile re-ranks the root with the observed child cardinality -- the
regression suite asserts both.
"""

from __future__ import annotations

import numpy as np

from ..storage.catalog import Catalog
from ..storage.schema import AttrType, Schema, annotation, key
from ..storage.table import Table

FACT_SCHEMA = Schema(
    "fact",
    [
        key("f_userkey", domain="userkey"),
        key("f_itemkey", domain="itemkey"),
    ],
)

LINK_SCHEMA = Schema(
    "link",
    [
        key("l_itemkey", domain="itemkey"),
        key("l_suppkey", domain="suppkey"),
    ],
)

DEAL_SCHEMA = Schema(
    "deal",
    [
        key("d_suppkey", domain="suppkey"),
        key("d_userkey", domain="userkey"),
    ],
)

SUPP_SCHEMA = Schema(
    "supp",
    [
        key("s_suppkey", domain="suppkey"),
        key("s_regionkey", domain="regionkey"),
    ],
)

REGION_SCHEMA = Schema(
    "region",
    [
        key("r_regionkey", domain="regionkey"),
        annotation("r_hot", AttrType.LONG),
    ],
)

#: heavy-hitter single-table workload for the approximate-query tier:
#: one *whale* segment holds almost every event, the tail segments a
#: handful each.  A uniform sample keeps the whale's aggregates tight
#: but routinely drops whole tail segments; a sample stratified on
#: ``e_segment`` keeps every group (see ``examples/approx_stratified``).
#: Fresh ``eventkey`` domain -- the table joins nothing above, so the
#: feedback-tuning triangle workload is untouched.
EVENTS_SCHEMA = Schema(
    "events",
    [
        key("e_eventkey", domain="eventkey"),
        annotation("e_segment", AttrType.LONG),
        annotation("e_amount", AttrType.DOUBLE),
    ],
)

#: the drifting query: per-user triangle counts restricted to suppliers
#: in hot regions.  The ``r_hot = 1`` filter passes ``n_hot`` region
#: rows, so the supp/region child's post-filter minimum is tiny -- but
#: the Zipf head regions hold most suppliers, so the child actually
#: emits most of the supplier domain.
SKEWED_QUERIES = {
    "hot_regions": """
        SELECT f_userkey, COUNT(*) AS deals
        FROM fact, link, deal, supp, region
        WHERE f_itemkey = l_itemkey
          AND l_suppkey = d_suppkey
          AND d_userkey = f_userkey
          AND d_suppkey = s_suppkey
          AND s_regionkey = r_regionkey
          AND r_hot = 1
        GROUP BY f_userkey
    """,
    "segment_totals": """
        SELECT e_segment, SUM(e_amount) AS total, COUNT(*) AS events
        FROM events
        GROUP BY e_segment
    """,
}


def _zipf_choice(rng, n: int, size: int, s: float) -> np.ndarray:
    """Zipf-distributed draws over ``0..n-1`` via an explicit pmf.

    ``numpy``'s ``rng.zipf`` is unbounded; an explicit normalized
    ``p(k) ~ (k+1)^-s`` keeps the support finite and the draw exactly
    reproducible for a pinned seed.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pmf = ranks**-s
    pmf /= pmf.sum()
    return rng.choice(n, size=size, p=pmf)


def generate_skewed(
    n_users: int = 60,
    n_items: int = 80,
    n_suppliers: int = 400,
    n_regions: int = 40,
    n_hot: int = 2,
    n_fact: int = 300,
    n_link: int = 300,
    n_deal: int = 300,
    skew: float = 1.6,
    seed: int = 7,
    catalog: Catalog | None = None,
) -> Catalog:
    """Generate the fact/link/deal/supp/region tables into a catalog.

    Supplier regions are Zipf-distributed (region 0 is the hottest);
    the ``n_hot`` head regions are flagged ``r_hot = 1``.  At the
    default ``skew`` the head holds well over half the suppliers, so
    the hot-region filter keeps most of the supplier domain while the
    region table's post-filter row count collapses to ``n_hot``.  The
    default sizes put the supp/region child's *observed* cardinality
    above every base table, so the feedback-corrected recompile
    re-ranks the root attribute order.
    """
    if not 0 < n_hot <= n_regions:
        raise ValueError("n_hot must be in 1..n_regions")
    catalog = catalog if catalog is not None else Catalog()
    rng = np.random.default_rng(seed)

    region_keys = np.arange(n_regions)
    hot = (region_keys < n_hot).astype(np.int64)
    catalog.register(
        Table.from_columns(REGION_SCHEMA, r_regionkey=region_keys, r_hot=hot)
    )

    supp_keys = np.arange(n_suppliers)
    supp_region = _zipf_choice(rng, n_regions, n_suppliers, skew)
    catalog.register(
        Table.from_columns(SUPP_SCHEMA, s_suppkey=supp_keys, s_regionkey=supp_region)
    )

    catalog.register(
        Table.from_columns(
            FACT_SCHEMA,
            f_userkey=rng.integers(0, n_users, n_fact),
            f_itemkey=rng.integers(0, n_items, n_fact),
        )
    )
    catalog.register(
        Table.from_columns(
            LINK_SCHEMA,
            l_itemkey=rng.integers(0, n_items, n_link),
            l_suppkey=rng.integers(0, n_suppliers, n_link),
        )
    )
    catalog.register(
        Table.from_columns(
            DEAL_SCHEMA,
            d_suppkey=rng.integers(0, n_suppliers, n_deal),
            d_userkey=rng.integers(0, n_users, n_deal),
        )
    )
    return catalog


def generate_events(
    n_events: int = 5000,
    n_segments: int = 8,
    whale_share: float = 0.9,
    seed: int = 11,
    catalog: Catalog | None = None,
) -> Catalog:
    """Generate the heavy-hitter ``events`` table into a catalog.

    Segment 0 (the *whale*) receives ``whale_share`` of all events;
    the other ``n_segments - 1`` tail segments split the rest evenly,
    so at the defaults each tail segment holds ~60 of 5000 rows.  A
    ``fraction=0.01`` uniform sample then expects well under one row
    per tail segment -- the demonstration that uniform sampling loses
    whole groups while ``strata=["e_segment"]`` keeps them all.  Amounts
    differ by segment (whale events are small, tail events large) so a
    dropped tail group visibly skews ``SUM(e_amount)``.
    """
    if not 0 < whale_share < 1:
        raise ValueError("whale_share must be in (0, 1)")
    if n_segments < 2:
        raise ValueError("n_segments must be >= 2 (a whale plus a tail)")
    catalog = catalog if catalog is not None else Catalog()
    rng = np.random.default_rng(seed)
    tail = rng.integers(1, n_segments, n_events)
    whale = rng.random(n_events) < whale_share
    segment = np.where(whale, 0, tail).astype(np.int64)
    # whale events cluster near 1.0, tail events near 100.0: losing a
    # tail segment is obvious in SUM(e_amount), not buried in noise
    amount = np.where(
        segment == 0,
        rng.random(n_events) + 0.5,
        rng.random(n_events) * 20.0 + 90.0,
    )
    catalog.register(
        Table.from_columns(
            EVENTS_SCHEMA,
            e_eventkey=np.arange(n_events),
            e_segment=segment,
            e_amount=amount,
        )
    )
    return catalog
