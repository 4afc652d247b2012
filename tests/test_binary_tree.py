"""BinaryTree structure, constructors, transformations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.trees import BinaryTree, theorem1_guest_size, theorem3_guest_size

from strategies import binary_trees


class TestConstruction:
    def test_single_node(self):
        t = BinaryTree([-1])
        assert t.n == 1 and t.root == 0 and t.is_leaf(0)

    def test_simple_tree(self):
        t = BinaryTree([-1, 0, 0, 1])
        assert t.children(0) == (1, 2)
        assert t.children(1) == (3,)
        assert t.parent(3) == 1
        assert t.parent(0) is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinaryTree([])

    def test_rejects_no_root(self):
        with pytest.raises(ValueError):
            BinaryTree([1, 0])  # cycle, no -1

    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            BinaryTree([-1, -1])

    def test_rejects_three_children(self):
        with pytest.raises(ValueError):
            BinaryTree([-1, 0, 0, 0])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            BinaryTree([-1, 2, 1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(ValueError):
            BinaryTree([-1, 7])

    def test_from_edges(self):
        t = BinaryTree.from_edges(4, [(0, 1), (1, 2), (1, 3)], root=0)
        assert t.parent(2) == 1 and t.parent(1) == 0

    def test_from_edges_wrong_count(self):
        with pytest.raises(ValueError):
            BinaryTree.from_edges(4, [(0, 1)], root=0)

    def test_from_edges_disconnected(self):
        with pytest.raises(ValueError):
            BinaryTree.from_edges(4, [(0, 1), (2, 3), (0, 1)], root=0)

    def test_from_nested(self):
        t = BinaryTree.from_nested((((), None), ()))
        assert t.n == 4
        assert t.degree(t.root) == 2


class TestAccessors:
    def test_neighbors_and_degree(self):
        t = BinaryTree([-1, 0, 0, 1, 1])
        assert list(t.neighbors(1)) == [0, 3, 4]
        assert t.degree(1) == 3
        assert t.degree(0) == 2
        assert t.degree(3) == 1

    def test_edges(self):
        t = BinaryTree([-1, 0, 0])
        assert set(t.edges()) == {(0, 1), (0, 2)}

    def test_subtree_sizes(self):
        t = BinaryTree([-1, 0, 0, 1, 1, 3])
        sizes = t.subtree_sizes()
        assert sizes[0] == 6 and sizes[1] == 4 and sizes[3] == 2 and sizes[2] == 1

    def test_preorder_parents_first(self):
        t = BinaryTree([-1, 0, 0, 1, 2])
        order = t.preorder()
        pos = {v: i for i, v in enumerate(order)}
        for p, c in t.edges():
            assert pos[p] < pos[c]

    def test_depths_and_height(self):
        t = BinaryTree([-1, 0, 1, 2])
        assert t.depths() == [0, 1, 2, 3]
        assert t.height() == 3

    def test_tree_distance(self):
        t = BinaryTree([-1, 0, 0, 1, 1])
        assert t.tree_distance(3, 4) == 2
        assert t.tree_distance(3, 2) == 3
        assert t.tree_distance(0, 0) == 0

    def test_is_complete(self):
        assert BinaryTree([-1, 0, 0]).is_complete()
        assert BinaryTree([-1, 0, 0, 1, 1, 2, 2]).is_complete()
        assert not BinaryTree([-1, 0, 0, 1]).is_complete()
        assert not BinaryTree([-1, 0]).is_complete()


class TestTransformations:
    def test_rerooted(self):
        t = BinaryTree([-1, 0, 0, 1])
        t2 = t.rerooted(3)
        assert t2.root == 3 and t2.n == t.n
        assert {frozenset(e) for e in t2.edges()} == {frozenset(e) for e in t.edges()}

    def test_rerooted_rejects_degree_3(self):
        t = BinaryTree([-1, 0, 0, 1, 1])
        with pytest.raises(ValueError):
            t.rerooted(1)

    def test_padded_to(self):
        t = BinaryTree([-1, 0, 0])
        t2 = t.padded_to(7)
        assert t2.n == 7
        # original prefix preserved
        assert t2.parent_array[:3] == t.parent_array
        assert max(len(t2.children(v)) for v in t2.nodes()) <= 2

    def test_padded_to_same_size_identity(self):
        t = BinaryTree([-1, 0])
        assert t.padded_to(2) is t

    def test_padded_to_rejects_shrink(self):
        with pytest.raises(ValueError):
            BinaryTree([-1, 0]).padded_to(1)

    def test_eq_and_hash(self):
        a = BinaryTree([-1, 0, 0])
        b = BinaryTree([-1, 0, 0])
        c = BinaryTree([-1, 0, 1])
        assert a == b and hash(a) == hash(b) and a != c


class TestSizes:
    def test_theorem1_sizes(self):
        assert theorem1_guest_size(0) == 16
        assert theorem1_guest_size(1) == 48
        assert theorem1_guest_size(3) == 240

    def test_theorem3_sizes(self):
        assert theorem3_guest_size(1) == 16
        assert theorem3_guest_size(3) == 112

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            theorem1_guest_size(-1)
        with pytest.raises(ValueError):
            theorem3_guest_size(-1)


class TestPropertyBased:
    @given(binary_trees())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, tree):
        # parent/children consistency
        for v in tree.nodes():
            for c in tree.children(v):
                assert tree.parent(c) == v
            assert len(tree.children(v)) <= 2
        # exactly one root, n-1 edges
        assert sum(1 for v in tree.nodes() if tree.parent(v) is None) == 1
        assert sum(1 for _ in tree.edges()) == tree.n - 1
        # subtree sizes sum at root
        assert tree.subtree_sizes()[tree.root] == tree.n
        # preorder covers everything exactly once
        assert sorted(tree.preorder()) == list(range(tree.n))
