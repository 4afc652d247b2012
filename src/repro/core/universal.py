"""Theorem 4: embedding binary trees into the degree-415 universal graph.

The graph itself lives in :mod:`repro.networks.universal` (it is a host
topology like any other — registered in ``TOPOLOGIES``, routable by the
engines, understood by the oracle); this module keeps the *embedding*
half: running the Theorem 1 construction on X(t-5) and lifting it onto
``G_n``'s slot groups.

A Theorem 1 embedding satisfying the paper's condition (3') maps every
guest edge onto a ``G_n`` edge, making every n-node binary tree a spanning
subgraph of ``G_n``.  The construction keeps (3') on every guest edge, so
:func:`spanning_defect` is empty.  That is the contract, and three checks
hold it: EXPERIMENTS.md's E4 and its condition (3') supplement measure 0
defects at every size; ``benchmarks/bench_theorem4.py``'s
``test_spanning_defect_check`` asserts an empty defect list; and
``benchmarks/gates.py`` anchors ``spanning_defect = 0`` for
``universal/universal_degree_and_spanning``.  The construction's
defensive fallback code stays: a run that reached it and left the
N-relation would fail those checks.
"""

from __future__ import annotations

from ..networks.universal import (
    UNIVERSAL_SLOTS as _SLOTS,
    UniversalGraph,
    universal_graph_size,
)
from ..networks.xtree import XAddr
from ..trees.binary_tree import BinaryTree
from .embedding import Embedding
from .xtree_embed import XTreeEmbeddingResult, theorem1_embedding

__all__ = [
    "UniversalGraph",
    "universal_graph_size",
    "embed_into_universal",
    "embed_into_universal_padded",
    "lift_onto_slots",
    "spanning_defect",
    "universal_supergraph",
]


def lift_onto_slots(
    embedding: Embedding, graph: UniversalGraph
) -> Embedding:
    """Lift an X(t-5) embedding onto ``G_n`` by slot-assigning cohabitants.

    Each X-tree vertex hosts at most 16 guests; they take slots
    ``0..load-1`` of that vertex's slot group in guest-node order.  The
    lift preserves injectivity per slot and, because slot groups of
    related vertices are fully connected, maps every dilation-1 guest
    edge whose endpoints sit on N-related (or equal) addresses onto a
    ``G_n`` edge.
    """
    counter: dict[XAddr, int] = {}
    phi: dict[int, tuple[XAddr, int]] = {}
    for v in sorted(embedding.phi):
        addr = embedding.phi[v]
        mu = counter.get(addr, 0)
        if mu >= _SLOTS:
            raise ValueError(
                f"X-tree vertex {addr} hosts more than {_SLOTS} guests; "
                f"cannot lift onto G_n slot groups"
            )
        counter[addr] = mu + 1
        phi[v] = (addr, mu)
    return Embedding(embedding.guest, graph, phi)


def embed_into_universal(
    tree: BinaryTree, graph: UniversalGraph, *, validate: bool = False,
    separator=None,
) -> tuple[Embedding, XTreeEmbeddingResult]:
    """Map ``tree`` (``n = 2**t - 16`` nodes) injectively onto ``graph``.

    Runs the Theorem 1 construction on X(t-5) and assigns each host vertex's
    16 cohabitants to its 16 slots.  The result is a bijection from guest
    nodes to ``G_n`` vertices; :func:`spanning_defect` reports how many
    guest edges (if any) fail to be ``G_n`` edges.
    """
    if tree.n != graph.n_nodes:
        raise ValueError(f"tree has {tree.n} nodes; G_n has {graph.n_nodes}")
    result = theorem1_embedding(tree, validate=validate, separator=separator)
    return lift_onto_slots(result.embedding, graph), result


def universal_supergraph(n: int) -> UniversalGraph:
    """The smallest G_{n'} with ``n' >= n`` slots — the paper's stated but
    unproven generalisation ("we have no doubt that one could generalize
    this result to hold also for arbitrary n").

    Any binary tree with ``n`` nodes is then a *subgraph* (not necessarily
    spanning) of the returned graph: pad the tree to ``n'`` nodes and embed
    with :func:`embed_into_universal` — the original tree occupies a subset
    of the vertices and all its edges are graph edges.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    t = 5
    while universal_graph_size(t) < n:
        t += 1
    return UniversalGraph(t)


def embed_into_universal_padded(
    tree: BinaryTree, graph: UniversalGraph | None = None
) -> tuple[Embedding, XTreeEmbeddingResult]:
    """Arbitrary-n universality: pad ``tree`` up to the graph size and embed.

    Returns the embedding of the *padded* tree; its first ``tree.n`` nodes
    are the original guest, whose edges land on graph edges whenever the
    padded embedding spans (which the default construction achieves).
    """
    if graph is None:
        graph = universal_supergraph(tree.n)
    if tree.n > graph.n_nodes:
        raise ValueError(f"tree has {tree.n} nodes; G_n only {graph.n_nodes}")
    padded = tree.padded_to(graph.n_nodes)
    return embed_into_universal(padded, graph)


def spanning_defect(embedding: Embedding, graph: UniversalGraph) -> list[tuple[int, int]]:
    """Guest edges whose images are *not* edges of ``graph``.

    Empty list == the guest is a spanning subgraph of ``G_n`` under this
    embedding (the Theorem 4 claim).
    """
    bad = []
    for u, v in embedding.guest.edges():
        if not graph.has_edge(embedding.phi[u], embedding.phi[v]):
            bad.append((u, v))
    return bad
