"""Aggregate quality metrics over embeddings, numpy-backed.

Complements :class:`repro.core.embedding.Embedding`'s per-instance methods
with sweep-level aggregation: profiles over tree families, histograms, and
the records the benchmark tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only; repro.core imports this package
    from ..core.embedding import Embedding

__all__ = ["EmbeddingMetrics", "collect_metrics", "dilation_histogram", "load_histogram"]


@dataclass(frozen=True)
class EmbeddingMetrics:
    """Flat record of one embedding's quality, ready for tabulation."""

    label: str
    n_guest: int
    n_host: int
    dilation: int
    mean_edge_dilation: float
    load_factor: int
    expansion: float
    congestion: int
    injective: bool


def collect_metrics(label: str, embedding: Embedding, *, congestion: bool = True) -> EmbeddingMetrics:
    """Compute every metric for one embedding under one label."""
    dil = embedding.edge_dilations()
    values = np.fromiter(dil.values(), dtype=np.int64) if dil else np.zeros(1, dtype=np.int64)
    return EmbeddingMetrics(
        label=label,
        n_guest=embedding.guest.n,
        n_host=embedding.host.n_nodes,
        dilation=int(values.max()),
        mean_edge_dilation=float(values.mean()),
        load_factor=embedding.load_factor(),
        expansion=embedding.expansion(),
        congestion=embedding.edge_congestion() if congestion else -1,
        injective=embedding.is_injective(),
    )


def dilation_histogram(embedding: Embedding) -> dict[int, int]:
    """How many guest edges realise each host distance."""
    dil = embedding.edge_dilations()
    vals, counts = np.unique(np.fromiter(dil.values(), dtype=np.int64), return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def load_histogram(embedding: Embedding) -> dict[int, int]:
    """How many host vertices carry each load value (0 included)."""
    loads = embedding.loads()
    empty = embedding.host.n_nodes - len(loads)
    vals, counts = np.unique(np.fromiter(loads.values(), dtype=np.int64), return_counts=True)
    out = {int(v): int(c) for v, c in zip(vals, counts)}
    if empty:
        out[0] = empty
    return dict(sorted(out.items()))
