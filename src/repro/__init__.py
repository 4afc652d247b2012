"""repro — Simulating Binary Trees on X-Trees (Monien, SPAA 1991).

A full reproduction of the paper's constructions:

* :func:`theorem1_embedding` — any binary tree with ``16*(2^(r+1)-1)``
  nodes into the X-tree X(r) with dilation 3, load factor 16 and optimal
  expansion (the paper's main result);
* :func:`injective_xtree_embedding` — Theorem 2's injective version into
  X(r+4) with dilation 11;
* :func:`theorem3_embedding` — Theorem 3's hypercube embedding (load 16,
  dilation 4 into the optimal hypercube);
* :class:`UniversalGraph` — Theorem 4's degree-415 universal graph;
* the separator lemmas, the X-tree/hypercube topologies, baselines, a
  synchronous network simulator, and verifiers for every claim.

Quickstart::

    from repro import make_tree, theorem1_guest_size, theorem1_embedding

    tree = make_tree("random", theorem1_guest_size(4), seed=0)   # 496 nodes
    result = theorem1_embedding(tree)
    print(result.embedding.report())   # dilation <= 3, load 16
"""

from .core import (
    ClaimReport,
    EmbedConfig,
    complete_tree_into_xtree,
    embed_into_universal_padded,
    embedding_from_dict,
    embedding_to_dict,
    gray_code,
    gray_rank,
    grid_into_hypercube,
    load_embedding,
    save_embedding,
    universal_supergraph,
    verify_imbalance_estimations,
    replay_online,
    OnlineXTreeEmbedder,
    OnlineResult,
    Embedding,
    EmbeddingReport,
    Separation,
    UniversalGraph,
    XTreeEmbeddingResult,
    complete_tree_identity,
    condition_3prime_defects,
    corollary_injective_hypercube,
    embed_binary_tree,
    embed_into_universal,
    expand_to_injective,
    injective_xtree_embedding,
    inorder_embedding,
    lemma1_bound,
    lemma1_split,
    lemma2_bound,
    lemma2_split,
    order_chunk_embedding,
    recursive_bisection_embedding,
    spanning_defect,
    theorem1_embedding,
    theorem3_embedding,
    universal_graph_size,
    verify_corollary_q8,
    verify_figure1,
    verify_figure2,
    verify_inorder,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    xtree_to_hypercube_map,
)
from .networks import (
    Butterfly,
    CompleteBinaryTreeNet,
    CubeConnectedCycles,
    Grid2D,
    Hypercube,
    Topology,
    XAddr,
    XTree,
    addr_from_string,
    addr_to_string,
    xtree_optimal_height,
    xtree_size,
)
from .obs import Recorder, TraceRecorder, span, span_summary
from .simulate import (
    PROGRAMS,
    ExecutionStats,
    SynchronousNetwork,
    TreeProgram,
    simulate_on_guest,
    simulate_on_host,
)
from .trees import (
    FAMILIES,
    BinaryTree,
    make_tree,
    theorem1_guest_size,
    theorem3_guest_size,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # guests
    "BinaryTree",
    "FAMILIES",
    "make_tree",
    "theorem1_guest_size",
    "theorem3_guest_size",
    # hosts
    "Topology",
    "XTree",
    "XAddr",
    "addr_to_string",
    "addr_from_string",
    "xtree_size",
    "xtree_optimal_height",
    "Hypercube",
    "CompleteBinaryTreeNet",
    "CubeConnectedCycles",
    "Butterfly",
    "Grid2D",
    # embeddings & results
    "Embedding",
    "EmbeddingReport",
    "XTreeEmbeddingResult",
    "embed_binary_tree",
    "theorem1_embedding",
    "EmbedConfig",
    "injective_xtree_embedding",
    "expand_to_injective",
    "theorem3_embedding",
    "corollary_injective_hypercube",
    "inorder_embedding",
    "xtree_to_hypercube_map",
    "UniversalGraph",
    "universal_graph_size",
    "embed_into_universal",
    "embed_into_universal_padded",
    "universal_supergraph",
    "spanning_defect",
    # separators
    "Separation",
    "lemma1_split",
    "lemma2_split",
    "lemma1_bound",
    "lemma2_bound",
    # baselines
    "order_chunk_embedding",
    "recursive_bisection_embedding",
    "complete_tree_identity",
    # verification
    "ClaimReport",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_corollary_q8",
    "verify_theorem4",
    "verify_lemma3",
    "verify_inorder",
    "verify_figure1",
    "verify_figure2",
    "condition_3prime_defects",
    "verify_imbalance_estimations",
    "replay_online",
    "OnlineXTreeEmbedder",
    "OnlineResult",
    # context constructions & serialization
    "gray_code",
    "gray_rank",
    "grid_into_hypercube",
    "complete_tree_into_xtree",
    "embedding_to_dict",
    "embedding_from_dict",
    "save_embedding",
    "load_embedding",
    # simulation
    "SynchronousNetwork",
    "TreeProgram",
    "PROGRAMS",
    "simulate_on_host",
    "simulate_on_guest",
    "ExecutionStats",
    # observability
    "Recorder",
    "TraceRecorder",
    "span",
    "span_summary",
]
