"""Old-vs-new timings for the distance-oracle subsystem (PR 1).

Times the two hot paths the oracle PR replaced, on the exact workloads the
acceptance criteria name:

* **dilation checking** — ``Embedding.edge_dilations`` for the Theorem 1
  embedding at ``r >= 7``: per-pair doubling-cutoff BFS (the old code
  path, reproduced verbatim below) vs the batched oracle with closed-form
  X-tree arithmetic;
* **all-pairs distances** — ``all_pairs_distances`` on X(8): per-source
  pure-Python BFS (kept as ``reference_all_pairs_distances``) vs the CSR
  multi-source frontier BFS (``all_pairs_distances``).

The smoke sizes only warn below the >= 5x acceptance threshold; the full
sizes gate it.  Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np

from bench_obs import _best_of

from repro.analysis.distances import all_pairs_distances, reference_all_pairs_distances
from repro.core import theorem1_embedding
from repro.networks import XTree
from repro.networks.base import bfs_distance
from repro.trees import make_tree, theorem1_guest_size

REQUIRED_SPEEDUP = 5.0


def legacy_edge_dilations(embedding) -> dict:
    """The pre-oracle ``Embedding.edge_dilations``: BFS per distinct pair."""
    host = embedding.host
    pair_edges: dict = {}
    for u, v in embedding.guest.edges():
        a, b = embedding.phi[u], embedding.phi[v]
        if host.index(a) > host.index(b):
            a, b = b, a
        pair_edges.setdefault((a, b), []).append((u, v))
    out = {}
    for (a, b), edges in pair_edges.items():
        cutoff = 4
        while True:
            d = bfs_distance(host.neighbors, a, b, cutoff=cutoff)
            if d is not None:
                break
            cutoff *= 2
            if cutoff > 4 * host.n_nodes:
                raise RuntimeError(f"no path between {a!r} and {b!r}")
        for e in edges:
            out[e] = d
    return out


def _legacy_dilation_check(emb) -> tuple[int, dict[int, int]]:
    """Dilation + histogram the way the seed computed them: per-pair BFS
    dict, then ``max``/``Counter`` over the Python values."""
    dil = legacy_edge_dilations(emb)
    return max(dil.values(), default=0), dict(sorted(Counter(dil.values()).items()))


def _oracle_dilation_check(emb) -> tuple[int, dict[int, int]]:
    """The new path, measured cold: the instance memo is cleared so each
    call re-runs the gather + batched oracle kernel (the image-index
    arrays are part of the Embedding, compiled once at construction)."""
    emb._edge_dils = None
    values = emb.edge_dilation_values()
    uniq, counts = np.unique(values, return_counts=True)
    return int(values.max()), dict(zip(uniq.tolist(), counts.tolist()))


def bench_dilation(r: int, repeats: int, *, gated: bool) -> dict:
    """verify_theorem1's dilation check: old per-pair BFS vs batched oracle."""
    tree = make_tree("random", theorem1_guest_size(r), seed=0)
    emb = theorem1_embedding(tree).embedding
    legacy = _best_of(lambda: _legacy_dilation_check(emb), repeats)
    _oracle_dilation_check(emb)  # warm the memoised oracle (CSR build)
    oracle = _best_of(lambda: _oracle_dilation_check(emb), repeats)
    assert _oracle_dilation_check(emb) == _legacy_dilation_check(emb)
    assert emb.edge_dilations() == legacy_edge_dilations(emb)
    return {
        "name": "theorem1_dilation_check",
        "params": {"r": r, "n_guest": tree.n},
        "gated": gated,
        "passed": legacy / oracle >= REQUIRED_SPEEDUP,
        "timing": {"old_s": legacy, "new_s": oracle, "speedup": legacy / oracle},
    }


def bench_all_pairs(r: int, repeats: int, *, gated: bool) -> dict:
    """all_pairs_distances on X(r): the reference Python BFS vs the oracle."""
    xtree = XTree(r)
    legacy = _best_of(lambda: reference_all_pairs_distances(xtree), repeats)
    all_pairs_distances(xtree)  # warm the memoised oracle (CSR build)
    oracle = _best_of(lambda: all_pairs_distances(xtree), repeats)
    assert (all_pairs_distances(xtree) == reference_all_pairs_distances(xtree)).all()
    return {
        "name": "all_pairs_distances_xtree",
        "params": {"r": r, "n_nodes": xtree.n_nodes},
        "gated": gated,
        "passed": legacy / oracle >= REQUIRED_SPEEDUP,
        "timing": {"old_s": legacy, "new_s": oracle, "speedup": legacy / oracle},
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    return [
        partial(bench_dilation, 5 if smoke else 7, 3, gated=not smoke),
        partial(bench_all_pairs, 6 if smoke else 8, 3, gated=not smoke),
    ]
