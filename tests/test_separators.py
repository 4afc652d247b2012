"""Lemma 1 and Lemma 2: every stated postcondition, property-based."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.separators.lemma import (
    Separation,
    lemma1_bound,
    lemma1_split,
    lemma2_bound,
    lemma2_split,
)
from repro.trees import BinaryTree, components_after_removal, make_tree

from strategies import binary_trees


def assert_separation_contract(
    tree: BinaryTree,
    sep: Separation,
    r1: int,
    r2: int,
    delta: int,
    bound: int,
    s1_max: int,
    s2_max: int,
    universe=None,
) -> None:
    """The full postcondition battery shared by both lemma tests."""
    uni = frozenset(tree.nodes()) if universe is None else frozenset(universe)
    # (partition) the sides partition the universe
    assert sep.side1 | sep.side2 == uni
    assert not (sep.side1 & sep.side2)
    # (containment) S_i inside side_i; designated nodes covered
    assert sep.s1 <= sep.side1 and sep.s2 <= sep.side2
    assert {r1, r2} <= sep.s1 | sep.s2
    # (size of S) nominal bounds plus any counted repair promotions
    assert len(sep.s1) <= s1_max + sep.n_promotions
    assert len(sep.s2) <= s2_max + sep.n_promotions
    # (balance) side 2 approximates delta
    assert abs(sep.n2 - delta) <= bound, (sep.n2, delta, bound)
    # (cut edges) exactly the side1-side2 edges, endpoints in the S sets
    for a, b in sep.cut_edges:
        assert a in sep.s1 and b in sep.s2
    crossing = {
        frozenset((u, v))
        for u, v in tree.edges()
        if u in uni and v in uni and (u in sep.side1) != (v in sep.side1)
    }
    assert crossing == {frozenset(e) for e in sep.cut_edges}
    # (collinearity) each leftover component touches <= 2 S-nodes
    for side, s in ((sep.side1, sep.s1), (sep.side2, sep.s2)):
        for comp in components_after_removal(tree, s & side, within=side):
            assert comp.n_attachment_edges <= 2


def _pick_designated(tree: BinaryTree, rng: random.Random) -> tuple[int, int]:
    while True:
        r1 = rng.randrange(tree.n)
        if tree.degree(r1) <= 2:
            break
    return r1, rng.randrange(tree.n)


class TestLemma1:
    def test_bound_values(self):
        assert [lemma1_bound(d) for d in (1, 2, 3, 6, 9)] == [0, 1, 1, 2, 3]

    def test_simple_path(self):
        t = make_tree("path", 20)
        sep = lemma1_split(t, 0, 19, 8)
        assert_separation_contract(t, sep, 0, 19, 8, lemma1_bound(8), 4, 2)

    def test_single_cut_edge(self):
        t = make_tree("random", 100, seed=0)
        sep = lemma1_split(t, 0, 50, 30)
        assert len(sep.cut_edges) == 1

    def test_r1_equals_r2(self):
        t = make_tree("random", 60, seed=1)
        sep = lemma1_split(t, 0, 0, 20)
        assert_separation_contract(t, sep, 0, 0, 20, lemma1_bound(20), 4, 2)

    def test_precondition_small_tree(self):
        t = make_tree("path", 4)
        with pytest.raises(ValueError, match="3n > 4"):
            lemma1_split(t, 0, 3, 3)

    def test_precondition_delta_positive(self):
        t = make_tree("path", 10)
        with pytest.raises(ValueError):
            lemma1_split(t, 0, 9, 0)

    def test_designated_outside_universe(self):
        t = make_tree("path", 10)
        with pytest.raises(ValueError):
            lemma1_split(t, 0, 9, 2, universe=range(5))

    def test_degree3_root_rejected(self):
        t = BinaryTree([-1, 0, 0, 1, 1])  # node 1 has degree 3
        with pytest.raises(ValueError, match="degree > 2"):
            lemma1_split(t, 1, 0, 3, universe=t.nodes())

    def test_on_sub_universe(self):
        t = make_tree("random", 200, seed=2)
        sizes = t.subtree_sizes()
        # take the subtree of some child of the root as the universe
        v = t.children(t.root)[0]
        uni = set()
        stack = [v]
        while stack:
            u = stack.pop()
            uni.add(u)
            stack.extend(t.children(u))
        if 3 * len(uni) > 4 * 10:
            sep = lemma1_split(t, v, v, 10, universe=uni)
            assert_separation_contract(t, sep, v, v, 10, lemma1_bound(10), 4, 2, universe=uni)

    @given(binary_trees(min_nodes=6, max_nodes=120), st.data())
    @settings(max_examples=120, deadline=None)
    def test_contract_property(self, tree, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
        r1, r2 = _pick_designated(tree, rng)
        dmax = (3 * tree.n - 1) // 4
        if dmax < 1:
            return
        delta = data.draw(st.integers(min_value=1, max_value=dmax))
        sep = lemma1_split(tree, r1, r2, delta)
        assert_separation_contract(tree, sep, r1, r2, delta, lemma1_bound(delta), 4, 2)

    def test_lemma1_never_needs_repair(self):
        """Lemma 1's proof is airtight: no collinearity promotions."""
        rng = random.Random(7)
        for _ in range(200):
            t = make_tree("random", rng.randint(8, 150), seed=rng.randrange(10**6))
            r1, r2 = _pick_designated(t, rng)
            dmax = (3 * t.n - 1) // 4
            sep = lemma1_split(t, r1, r2, rng.randint(1, dmax))
            assert sep.n_promotions == 0


class TestLemma2:
    def test_bound_values(self):
        assert [lemma2_bound(d) for d in (1, 5, 14, 23)] == [0, 1, 2, 3]

    def test_tighter_than_lemma1(self):
        for d in range(1, 200):
            assert lemma2_bound(d) <= lemma1_bound(d)

    def test_simple(self):
        t = make_tree("random", 90, seed=4)
        sep = lemma2_split(t, 0, 45, 30)
        assert_separation_contract(t, sep, 0, 45, 30, lemma2_bound(30), 4, 4)

    def test_large_delta_swap_branch(self):
        """delta > 3n/4 exercises the role-interchange branch."""
        t = make_tree("random", 100, seed=5)
        sep = lemma2_split(t, 0, 50, 90)
        assert_separation_contract(t, sep, 0, 50, 90, lemma2_bound(90), 4, 4)

    def test_delta_range_validation(self):
        t = make_tree("path", 10)
        with pytest.raises(ValueError):
            lemma2_split(t, 0, 9, 0)
        with pytest.raises(ValueError):
            lemma2_split(t, 0, 9, 10)

    def test_exact_split_possible(self):
        # delta = n//2 on a path must come out within the 1/9 bound
        t = make_tree("path", 99)
        sep = lemma2_split(t, 0, 98, 49)
        assert abs(sep.n2 - 49) <= lemma2_bound(49)

    def test_swapped_preserves_contract(self):
        t = make_tree("random", 60, seed=6)
        sep = lemma2_split(t, 0, 30, 20)
        sw = sep.swapped()
        assert sw.side1 == sep.side2 and sw.s1 == sep.s2
        assert {tuple(reversed(e)) for e in sw.cut_edges} == set(sep.cut_edges)

    @given(binary_trees(min_nodes=3, max_nodes=120), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contract_property(self, tree, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
        r1, r2 = _pick_designated(tree, rng)
        delta = data.draw(st.integers(min_value=1, max_value=tree.n - 1))
        sep = lemma2_split(tree, r1, r2, delta)
        assert_separation_contract(tree, sep, r1, r2, delta, lemma2_bound(delta), 4, 4)

    def test_promotions_are_rare(self):
        """The repair path fires on a small minority of adversarial splits."""
        rng = random.Random(11)
        promoted = 0
        total = 0
        for _ in range(300):
            t = make_tree(
                rng.choice(["random", "remy", "skewed", "caterpillar"]),
                rng.randint(10, 200),
                seed=rng.randrange(10**6),
            )
            r1, r2 = _pick_designated(t, rng)
            sep = lemma2_split(t, r1, r2, rng.randint(1, t.n - 1))
            promoted += 1 if sep.n_promotions else 0
            total += 1
        assert promoted / total < 0.10


class TestFind1Walk:
    """The find1 bound |size(u) - delta| <= floor((delta+1)/3) directly."""

    @given(binary_trees(min_nodes=4, max_nodes=150), st.data())
    @settings(max_examples=80, deadline=None)
    def test_walk_lands_in_band(self, tree, data):
        from repro.separators.lemma import _Piece

        root = tree.root
        if tree.degree(root) > 2:
            return
        dmax = (3 * tree.n - 1) // 4
        if dmax < 1:
            return
        delta = data.draw(st.integers(min_value=1, max_value=dmax))
        piece = _Piece(tree, set(tree.nodes()), root)
        u = piece.find1(root, delta)
        assert abs(piece.size[u] - delta) <= lemma1_bound(delta)
