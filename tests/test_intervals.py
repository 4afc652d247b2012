"""LayoutState: placements, weights, piece bookkeeping, peeling."""

from __future__ import annotations

import pytest

from repro.core.intervals import LayoutState, Piece
from repro.networks import XTree
from repro.trees import BinaryTree, make_tree


@pytest.fixture
def state():
    tree = make_tree("random", 64, seed=1)
    return LayoutState(tree, XTree(3), capacity=4)


class TestPlacement:
    def test_place_and_load(self, state):
        state.place_node(0, (0, 0))
        assert state.load((0, 0)) == 1
        assert state.free((0, 0)) == 3
        assert state.place[0] == (0, 0)

    def test_double_placement_rejected(self, state):
        state.place_node(0, (0, 0))
        with pytest.raises(RuntimeError, match="twice"):
            state.place_node(0, (1, 0))

    def test_capacity_enforced(self, state):
        for v in range(4):
            state.place_node(v, (2, 1))
        with pytest.raises(RuntimeError, match="capacity"):
            state.place_node(4, (2, 1))

    def test_weights_propagate_to_ancestors(self, state):
        state.place_node(0, (3, 5))
        assert state.weight[(3, 5)] == 1
        assert state.weight[(2, 2)] == 1
        assert state.weight[(1, 1)] == 1
        assert state.weight[(0, 0)] == 1
        assert (1, 0) not in state.weight


class TestPieces:
    def test_make_pieces_splits_components(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        rest = frozenset(tree.nodes()) - {tree.root}
        pieces = state.make_pieces(rest, (0, 0))
        assert sum(p.size for p in pieces) == tree.n - 1
        for p in pieces:
            assert p.sigma == (0, 0)
            assert 1 <= len(p.designated) <= 2
            # designated nodes are adjacent to the placed root
            for d in p.designated:
                assert tree.root in list(tree.neighbors(d))

    def test_attach_detach_weight(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        pieces = state.make_pieces(frozenset(tree.nodes()) - {tree.root}, (3, 0))
        for p in pieces:
            state.attach(p)
        assert state.weight[(3, 0)] == tree.n - 1
        assert state.weight[(0, 0)] == tree.n  # root node + attached below
        for p in list(state.all_pieces()):
            state.detach(p)
        assert state.weight[(3, 0)] == 0

    def test_moved_to(self):
        p = Piece(frozenset({1, 2}), (0, 0), (1, 0), (1,))
        q = p.moved_to((1, 1))
        assert q.leaf == (1, 1) and q.nodes == p.nodes and q.sigma == p.sigma

    def test_move_shifts_weight_between_leaves(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        pieces = state.make_pieces(frozenset(tree.nodes()) - {tree.root}, (3, 0))
        for p in pieces:
            state.attach(p)
        moved = state.move(pieces[0], (3, 5))
        assert moved.leaf == (3, 5) and moved.nodes == pieces[0].nodes
        assert state.pieces_at[(3, 5)] == [moved]
        assert state.weight[(3, 5)] == state.weight[(1, 1)] == moved.size
        assert state.weight[(3, 0)] == tree.n - 1 - moved.size
        assert state.weight[(0, 0)] == tree.n
        state.validate()

    def test_pop_pieces(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        pieces = state.make_pieces(frozenset(tree.nodes()) - {tree.root}, (2, 0))
        for p in pieces:
            state.attach(p)
        popped = state.pop_pieces((2, 0))
        assert len(popped) == len(pieces)
        assert state.all_pieces() == []

    def test_disconnected_piece_without_neighbor_rejected(self, state):
        with pytest.raises(RuntimeError, match="no placed neighbour"):
            state.make_pieces(frozenset({5}), (0, 0))


class TestPeel:
    def _setup(self, capacity=4):
        tree = BinaryTree([-1, 0, 1, 2, 3, 4, 5, 6])  # a path of 8
        st = LayoutState(tree, XTree(2), capacity=capacity)
        st.place_node(0, (0, 0))
        (piece,) = st.make_pieces(frozenset(range(1, 8)), (1, 0))
        st.attach(piece)
        return tree, st, piece

    def test_peel_places_connected_blob(self):
        tree, st, piece = self._setup()
        st.peel(piece, 3, (1, 0))
        assert st.load((1, 0)) == 3
        placed = {v for v, a in st.place.items() if a == (1, 0)}
        assert placed == {1, 2, 3}  # BFS from designated node 1 down the path

    def test_peel_residual_sigma(self):
        tree, st, piece = self._setup()
        residuals = st.peel(piece, 3, (1, 0))
        assert len(residuals) == 1
        assert residuals[0].sigma == (1, 0)
        assert residuals[0].nodes == frozenset({4, 5, 6, 7})

    def test_peel_whole_piece(self):
        tree, st, piece = self._setup(capacity=8)
        residuals = st.peel(piece, 7, (1, 0))
        assert residuals == []
        assert st.n_unplaced() == 0

    def test_peel_refuses_when_designated_dont_fit(self):
        tree = BinaryTree([-1, 0, 1, 2, 3])  # path of 5
        st = LayoutState(tree, XTree(1), capacity=2)
        st.place_node(0, (0, 0))
        st.place_node(4, (0, 0))
        # the segment {1,2,3} has two designated nodes (1 and 3)
        (piece,) = st.make_pieces(frozenset({1, 2, 3}), (1, 0))
        assert piece.designated == (1, 3)
        st.attach(piece)
        # asking for a single slot cannot host both designated: refused
        result = st.peel(piece, 1, (1, 0))
        assert result == [piece]
        assert st.load((1, 0)) == 0
        assert piece in st.pieces_at[(1, 0)]

    def test_lay_out_moves_weight_to_each_part(self):
        tree, st, piece = self._setup()  # piece {1..7} attached at (1, 0)
        residuals = st.lay_out(piece, (
            ([1, 2, 3], frozenset(), (2, 0)),
            ([4], frozenset({5, 6, 7}), (2, 1)),
        ))
        assert [r.nodes for r in residuals] == [frozenset({5, 6, 7})]
        assert residuals[0].sigma == (2, 1) and residuals[0].designated == (5,)
        assert st.weight[(2, 0)] == 3 and st.weight[(2, 1)] == 4
        assert st.weight[(1, 0)] == 7 and st.weight[(0, 0)] == 8
        st.validate()

    def test_peel_zero_k(self):
        tree, st, piece = self._setup()
        result = st.peel(piece, 0, (1, 0))
        assert result == [piece]


class TestValidate:
    def test_validate_clean_state(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        for p in state.make_pieces(frozenset(tree.nodes()) - {tree.root}, (1, 0)):
            state.attach(p)
        state.validate()

    def test_validate_catches_weight_drift(self, state):
        tree = state.tree
        state.place_node(tree.root, (0, 0))
        for p in state.make_pieces(frozenset(tree.nodes()) - {tree.root}, (1, 0)):
            state.attach(p)
        state.weight[(0, 0)] += 1
        with pytest.raises(AssertionError, match="weight drift"):
            state.validate()

    def test_validate_catches_lost_nodes(self, state):
        state.place_node(0, (0, 0))
        with pytest.raises(AssertionError, match="nodes lost"):
            state.validate()
