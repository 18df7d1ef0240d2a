"""The random directed graph behind the ``triangle`` template."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import sparse as sp

from repro import Schema, key

from .. import oracle

TRIANGLE_SQL = (
    "SELECT count(*) AS triangles FROM edges e1, edges e2, edges e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src"
)
#: sized so the cyclic count takes ~0.1 s and a pass stays short enough
#: for >= 200 timed ops inside the cap on a run's length.
NODES, EDGES = 400, 5000


def graph_tables(rng, domain: str = "node") -> Dict[str, Tuple[Schema, Dict[str, np.ndarray]]]:
    """``nodes`` (pins the domain to every id, edge or not) and ``edges``, as table inputs."""
    pairs = np.unique(rng.integers(0, NODES, size=(EDGES, 2)), axis=0)
    return {
        "nodes": (
            Schema("nodes", [key("v", domain=domain)]),
            {"v": np.arange(NODES, dtype=np.int64)},
        ),
        "edges": (
            Schema("edges", [key("src", domain=domain), key("dst", domain=domain)]),
            {
                "src": np.ascontiguousarray(pairs[:, 0], dtype=np.int64),
                "dst": np.ascontiguousarray(pairs[:, 1], dtype=np.int64),
            },
        ),
    }


def triangle_reference(edges: Dict[str, np.ndarray]) -> oracle.Fingerprint:
    """The query counts closed walks of length three: trace(A^3), by scipy."""
    adjacency = sp.coo_matrix(
        (np.ones(len(edges["src"])), (edges["src"], edges["dst"])), shape=(NODES, NODES)
    ).tocsr()
    walks = (adjacency @ adjacency).multiply(adjacency.T).sum()
    return oracle.array_fingerprint(triangles=np.array([int(walks)]))
