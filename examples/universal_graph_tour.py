"""Tour of Theorem 4's universal graph G_n (degree <= 415).

Builds G_n for n = 2^t - 16, shows where the 415 = 25*16 + 15 degree bound
comes from, and demonstrates the universality property: structurally wild
binary trees all embed as (near-)spanning subgraphs of the same fixed graph,
so one physical network could run any of them in real time.

    python examples/universal_graph_tour.py [--t T]
"""

from __future__ import annotations

import argparse

from repro import (
    UniversalGraph,
    embed_into_universal,
    make_tree,
    spanning_defect,
)
from repro.analysis import markdown_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=int, default=9, help="n = 2^t - 16")
    args = parser.parse_args()

    graph = UniversalGraph(args.t)
    n = graph.n_nodes
    print(f"G_n for t = {args.t}: n = {n} vertices "
          f"(16 slots on each vertex of X({args.t - 5}))")

    # The degree anatomy at a deep interior vertex.
    deep = (graph.height, (1 << graph.height) // 2) if graph.height > 0 else (0, 0)
    out_n = len(graph.xtree.condition_neighborhood(deep)) - 1
    in_n = len(graph.xtree.asymmetric_in_neighbors(deep))
    print(f"\ndegree anatomy at X-tree vertex {deep}:")
    print(f"  |N(alpha) - alpha|       = {out_n:3d}  (paper bound 20)")
    print(f"  asymmetric in-neighbours = {in_n:3d}  (paper bound 5)")
    print(f"  -> ({out_n} + {in_n}) related vertices x 16 slots + 15 siblings "
          f"= {(out_n + in_n) * 16 + 15}")
    print(f"  graph-wide max degree    = {graph.max_degree()}  (paper bound 415)")

    print("\nuniversality: one graph, every tree shape —")
    rows = []
    for fam in ("complete", "path", "caterpillar", "random", "remy", "skewed"):
        tree = make_tree(fam, n, seed=0)
        emb, result = embed_into_universal(tree, graph)
        defects = spanning_defect(emb, graph)
        rows.append(
            [fam, tree.height(), result.embedding.dilation(), len(defects)]
        )
    print(
        markdown_table(
            ["tree family", "tree height", "X-tree dilation", "N-mode defect edges"],
            rows,
        )
    )
    print("\nEvery tree embeds injectively, and condition (3') keeps every "
          "guest edge on a G_n edge (see EXPERIMENTS.md E4).")

if __name__ == "__main__":
    main()
