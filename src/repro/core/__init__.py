"""The paper's results: embeddings, universal graphs, verifiers, and the
Lemma 1/2 separators of :mod:`repro.separators.lemma`, re-exported."""

from .context import (
    complete_tree_into_xtree,
    gray_code,
    gray_rank,
    grid_into_hypercube,
)
from .serialization import (
    embedding_from_dict,
    embedding_to_dict,
    load_embedding,
    save_embedding,
)
from ..separators.lemma import (
    Separation,
    lemma1_bound,
    lemma1_split,
    lemma2_bound,
    lemma2_split,
)
from .online import OnlineResult, OnlineXTreeEmbedder, replay_online
from .baselines import (
    complete_tree_identity,
    order_chunk_embedding,
    recursive_bisection_embedding,
)
from .embedding import Embedding, EmbeddingReport
from .hypercube_embed import (
    corollary_injective_hypercube,
    inorder_embedding,
    theorem3_embedding,
    xtree_to_hypercube_map,
)
from .injective import expand_to_injective, injective_xtree_embedding
from .intervals import LayoutState, LayoutStats, Piece
from .universal import (
    UniversalGraph,
    embed_into_universal,
    embed_into_universal_padded,
    spanning_defect,
    universal_graph_size,
    universal_supergraph,
)
from .verification import (
    ClaimReport,
    verify_imbalance_estimations,
    condition_3prime_defects,
    verify_corollary_q8,
    verify_figure1,
    verify_figure2,
    verify_inorder,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)
from .xtree_embed import (
    EmbedConfig,
    XTreeEmbeddingResult,
    embed_binary_tree,
    theorem1_embedding,
)

__all__ = [
    "Embedding",
    "EmbeddingReport",
    "Separation",
    "lemma1_split",
    "lemma2_split",
    "lemma1_bound",
    "lemma2_bound",
    "LayoutState",
    "LayoutStats",
    "Piece",
    "XTreeEmbeddingResult",
    "EmbedConfig",
    "embed_binary_tree",
    "theorem1_embedding",
    "injective_xtree_embedding",
    "expand_to_injective",
    "inorder_embedding",
    "xtree_to_hypercube_map",
    "theorem3_embedding",
    "corollary_injective_hypercube",
    "UniversalGraph",
    "universal_graph_size",
    "embed_into_universal",
    "embed_into_universal_padded",
    "universal_supergraph",
    "spanning_defect",
    "order_chunk_embedding",
    "recursive_bisection_embedding",
    "complete_tree_identity",
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
    "verify_imbalance_estimations",
    "condition_3prime_defects",
    "gray_code",
    "gray_rank",
    "grid_into_hypercube",
    "complete_tree_into_xtree",
    "embedding_to_dict",
    "embedding_from_dict",
    "save_embedding",
    "load_embedding",
    "OnlineXTreeEmbedder",
    "OnlineResult",
    "replay_online",
]
