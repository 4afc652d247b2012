"""Distance computations over whole topologies, vectorised with numpy.

The verification and benchmark layers need all-pairs or one-to-all
distances on moderate-size networks.  The heavy lifting now lives in
:mod:`repro.analysis.oracle`: a CSR adjacency built once per topology and a
multi-source frontier-at-a-time BFS replace the former Python-level
per-source loops (the HPC guide's rule: optimise the measured bottleneck —
``benchmarks/bench_oracle.py`` tracks the speedup).  The legacy pure-Python
BFS is kept as :func:`reference_all_pairs_distances`, the oracle-independent
reference the tests and that benchmark compare against.
"""

from __future__ import annotations

import numpy as np

from ..networks.base import Topology
from .oracle import oracle_for

__all__ = [
    "all_pairs_distances",
    "reference_all_pairs_distances",
    "distance_histogram",
    "eccentricities",
]


def all_pairs_distances(topology: Topology, dtype=np.int32) -> np.ndarray:
    """Dense ``n x n`` matrix of hop distances, indexed canonically.

    ``D[i, j]`` is the distance between ``node_at(i)`` and ``node_at(j)``.
    Memory is ``n**2 * itemsize``; intended for ``n`` up to a few thousand.
    Runs the vectorised multi-source BFS of
    :class:`repro.analysis.oracle.DistanceOracle`.
    """
    return oracle_for(topology).all_pairs(dtype=dtype)


def reference_all_pairs_distances(topology: Topology) -> np.ndarray:
    """:func:`all_pairs_distances` by the legacy per-source Python BFS.

    Slower, but independent of the oracle: the reference the tests and
    the ``bench_oracle`` old-vs-new comparison check it against.
    """
    n = topology.n_nodes
    # adjacency as index lists, built once
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in topology.nodes():
        iu = topology.index(u)
        adj[iu] = [topology.index(v) for v in topology.neighbors(u)]
    out = np.full((n, n), -1, dtype=np.int32)
    for s in range(n):
        row = out[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if row[v] < 0:
                        row[v] = d
                        nxt.append(v)
            frontier = nxt
    return out


def distance_histogram(distances: np.ndarray) -> dict[int, int]:
    """Histogram of the upper-triangle distances of an all-pairs matrix."""
    n = distances.shape[0]
    iu = np.triu_indices(n, k=1)
    vals, counts = np.unique(distances[iu], return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def eccentricities(distances: np.ndarray) -> np.ndarray:
    """Per-node eccentricity (max distance to any other node)."""
    return distances.max(axis=1)
