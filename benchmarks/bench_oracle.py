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

Writes ``BENCH_PR1.json`` next to the repo root so the perf trajectory of
later scaling PRs starts from this record.  Run directly::

    python benchmarks/bench_oracle.py [--smoke] [--out BENCH_PR1.json]

``--smoke`` shrinks the instances for CI; the full run gates the >= 5x
acceptance threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

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


def bench_dilation(r: int, repeats: int) -> dict:
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
        "old_s": legacy,
        "new_s": oracle,
        "speedup": legacy / oracle,
    }


def bench_all_pairs(r: int, repeats: int) -> dict:
    """all_pairs_distances on X(r): the reference Python BFS vs the oracle."""
    xtree = XTree(r)
    legacy = _best_of(lambda: reference_all_pairs_distances(xtree), repeats)
    all_pairs_distances(xtree)  # warm the memoised oracle (CSR build)
    oracle = _best_of(lambda: all_pairs_distances(xtree), repeats)
    assert (all_pairs_distances(xtree) == reference_all_pairs_distances(xtree)).all()
    return {
        "name": "all_pairs_distances_xtree",
        "params": {"r": r, "n_nodes": xtree.n_nodes},
        "old_s": legacy,
        "new_s": oracle,
        "speedup": legacy / oracle,
    }


def run(smoke: bool = False, repeats: int = 3) -> dict:
    """Execute both benchmarks; the experiments harness hooks in here."""
    dilation_r = 5 if smoke else 7
    all_pairs_r = 6 if smoke else 8
    results = [
        bench_dilation(dilation_r, repeats),
        bench_all_pairs(all_pairs_r, repeats),
    ]
    return {
        "bench": "oracle (PR 1)",
        "smoke": smoke,
        "python": sys.version.split()[0],
        "required_speedup": REQUIRED_SPEEDUP,
        "results": results,
        "all_pass": all(res["speedup"] >= REQUIRED_SPEEDUP for res in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small instances for CI")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR1.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    record = run(smoke=args.smoke, repeats=args.repeats)
    for res in record["results"]:
        print(
            f"{res['name']:<28} {res['params']}  "
            f"old {res['old_s'] * 1e3:9.2f} ms   new {res['new_s'] * 1e3:8.3f} ms   "
            f"speedup {res['speedup']:7.1f}x"
        )
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not record["all_pass"]:
        print(f"WARNING: some speedups below the {REQUIRED_SPEEDUP}x acceptance threshold")
        return 0 if record["smoke"] else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
