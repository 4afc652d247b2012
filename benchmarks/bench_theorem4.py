"""E4: Theorem 4 — universal graph construction, degree bound, spanning."""

from __future__ import annotations

import pytest

from repro.core import UniversalGraph, embed_into_universal, spanning_defect
from repro.trees import make_tree


@pytest.mark.parametrize("t", [9, 11])
def test_degree_bound(benchmark, t):
    def build_and_measure():
        g = UniversalGraph(t)
        return g, g.max_degree()

    g, degree = benchmark(build_and_measure)
    assert degree <= 415


def test_spanning_embedding(benchmark):
    g = UniversalGraph(9)
    tree = make_tree("random", g.n_nodes, seed=0)
    emb, _ = benchmark(embed_into_universal, tree, g)
    assert emb.is_injective()


def test_spanning_defect_check(benchmark):
    g = UniversalGraph(9)
    tree = make_tree("remy", g.n_nodes, seed=0)
    emb, _ = embed_into_universal(tree, g)
    assert benchmark(spanning_defect, emb, g) == []
