"""X-tree topology: definition, counts, neighbourhoods (Figure 1 & 2)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import XTree, addr_from_string, addr_to_string, xtree_optimal_height, xtree_size
from repro.networks.base import bfs_distance


class TestAddresses:
    def test_root_is_empty_string(self):
        assert addr_to_string((0, 0)) == ""
        assert addr_from_string("") == (0, 0)

    def test_roundtrip(self):
        for level in range(6):
            for idx in range(1 << level):
                s = addr_to_string((level, idx))
                assert len(s) == level
                assert addr_from_string(s) == (level, idx)

    def test_examples_from_paper_notation(self):
        # binary("101") = 5 on level 3
        assert addr_from_string("101") == (3, 5)
        assert addr_to_string((3, 5)) == "101"

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError):
            addr_to_string((2, 4))
        with pytest.raises(ValueError):
            addr_to_string((-1, 0))
        with pytest.raises(ValueError):
            addr_from_string("10a")


class TestStructure:
    def test_size_formula(self):
        for r in range(8):
            assert xtree_size(r) == 2 ** (r + 1) - 1
            assert XTree(r).n_nodes == xtree_size(r)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            XTree(-1)
        with pytest.raises(ValueError):
            xtree_size(-2)

    def test_x3_matches_figure1(self):
        """Figure 1 shows X(3): 15 nodes, 14 tree edges + 11 cross edges."""
        x = XTree(3)
        assert x.n_nodes == 15
        assert x.n_tree_edges == 14
        assert x.n_cross_edges == 11
        assert x.n_edges == 25
        assert sum(1 for _ in x.edges()) == 25

    @pytest.mark.parametrize("r", range(7))
    def test_edge_count_formula(self, r):
        x = XTree(r)
        assert sum(1 for _ in x.edges()) == 2 ** (r + 2) - r - 4

    def test_degree_bounded_by_5(self):
        for r in range(6):
            assert XTree(r).max_degree() <= 5

    def test_degree_5_achieved(self):
        # an interior vertex with parent, 2 children, 2 horizontal neighbours
        x = XTree(3)
        assert x.degree((2, 1)) == 5

    def test_neighbors_symmetric(self):
        x = XTree(4)
        for u in x.nodes():
            for v in x.neighbors(u):
                assert u in set(x.neighbors(v))

    def test_connected(self):
        assert XTree(5).is_connected()

    def test_horizontal_edges_form_level_paths(self):
        """Each level's cross edges chain vertices in binary order."""
        x = XTree(4)
        for level in range(1, 5):
            width = 1 << level
            for idx in range(width):
                nbrs = set(x.neighbors((level, idx)))
                if idx > 0:
                    assert (level, idx - 1) in nbrs
                if idx < width - 1:
                    assert (level, idx + 1) in nbrs
            # level ends have no wraparound (trivially adjacent when width 2)
            if width > 2:
                assert (level, width - 1) not in set(x.neighbors((level, 0)))

    def test_contains_complete_binary_tree(self):
        x = XTree(3)
        for level in range(3):
            for idx in range(1 << level):
                kids = x.children((level, idx))
                assert kids == ((level + 1, 2 * idx), (level + 1, 2 * idx + 1))
                for k in kids:
                    assert x.parent(k) == (level, idx)

    def test_matches_networkx_construction(self):
        """Independent reconstruction from the paper's string definition."""
        r = 4
        g = nx.Graph()
        strings = [""]
        for level in range(1, r + 1):
            strings += [format(i, f"0{level}b") for i in range(1 << level)]
        for s in strings:
            if len(s) < r:
                g.add_edge(s, s + "0")
                g.add_edge(s, s + "1")
            if s and int(s, 2) < 2 ** len(s) - 1:
                g.add_edge(s, format(int(s, 2) + 1, f"0{len(s)}b"))
        x = XTree(r)
        ours = nx.Graph()
        ours.add_edges_from(
            (addr_to_string(u), addr_to_string(v)) for u, v in x.edges()
        )
        assert nx.utils.graphs_equal(g, ours)


class TestNavigation:
    def test_parent_children_successor(self):
        x = XTree(3)
        assert x.parent((0, 0)) is None
        assert x.successor((2, 3)) is None
        assert x.predecessor((2, 0)) is None
        assert x.successor((2, 1)) == (2, 2)
        assert x.predecessor((2, 2)) == (2, 1)
        assert x.children((3, 0)) == ()

    def test_index_roundtrip(self):
        x = XTree(4)
        for i, v in enumerate(x.nodes()):
            assert x.index(v) == i
            assert x.node_at(i) == v

    def test_subtree_below(self):
        x = XTree(3)
        sub = list(x.subtree_below((1, 1)))
        assert len(sub) == 7
        assert (1, 1) in sub and (3, 7) in sub and (2, 1) not in sub

    def test_ancestor_at(self):
        x = XTree(4)
        assert x.ancestor_at((4, 13), 2) == (2, 3)
        assert x.ancestor_at((4, 13), 4) == (4, 13)
        with pytest.raises(ValueError):
            x.ancestor_at((2, 1), 3)

    def test_leaves(self):
        x = XTree(3)
        assert list(x.leaves()) == [(3, i) for i in range(8)]
        assert x.is_leaf((3, 4)) and not x.is_leaf((2, 3))


class TestConditionNeighborhood:
    """Figure 2: N(alpha) and the asymmetric in-neighbour bound."""

    def test_interior_vertex_has_20(self):
        x = XTree(8)
        # level 4, away from both ends, with 2 levels below
        assert len(x.condition_neighborhood((4, 7)) - {(4, 7)}) == 20

    def test_bounds_hold_everywhere(self):
        for r in (3, 5, 7):
            x = XTree(r)
            for v in x.nodes():
                assert len(x.condition_neighborhood(v) - {v}) <= 20
                assert len(x.asymmetric_in_neighbors(v)) <= 5

    def test_definition_matches_path_enumeration(self):
        """Cross-check N(alpha) against brute-force path enumeration."""
        x = XTree(5)
        for v in [(0, 0), (2, 1), (3, 0), (3, 7), (4, 9), (5, 17)]:
            expected = set()
            level, idx = v
            # up to 3 horizontal hops
            for off in range(-3, 4):
                j = idx + off
                if 0 <= j < (1 << level):
                    expected.add((level, j))
            # 1..2 downward then up to 2 horizontal
            downs = [[v]]
            for _ in range(2):
                nxt = []
                for (l, i) in downs[-1]:
                    if l < x.height:
                        nxt += [(l + 1, 2 * i), (l + 1, 2 * i + 1)]
                downs.append(nxt)
            for layer in downs[1:]:
                for (l, i) in layer:
                    for off in range(-2, 3):
                        j = i + off
                        if 0 <= j < (1 << l):
                            expected.add((l, j))
            assert x.condition_neighborhood(v) == expected

    def test_asymmetric_in_neighbors_definition(self):
        x = XTree(4)
        for v in x.nodes():
            expected = {
                b
                for b in x.nodes()
                if v in x.condition_neighborhood(b)
                and b not in x.condition_neighborhood(v)
                and b != v
            }
            assert x.asymmetric_in_neighbors(v) == expected

    def test_everything_in_N_is_within_distance_3(self):
        x = XTree(5)
        for v in [(1, 0), (3, 4), (5, 12)]:
            for b in x.condition_neighborhood(v):
                assert x.distance(v, b) <= 3


class TestDistances:
    @given(st.integers(min_value=0, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_distance_agrees_with_networkx(self, r, data):
        x = XTree(r)
        nodes = list(x.nodes())
        u = data.draw(st.sampled_from(nodes))
        v = data.draw(st.sampled_from(nodes))
        g = nx.Graph()
        g.add_nodes_from(x.nodes())
        g.add_edges_from(x.edges())
        assert x.distance(u, v) == nx.shortest_path_length(g, u, v)

    def test_cutoff(self):
        x = XTree(4)
        assert x.distance((4, 0), (4, 15), cutoff=2) is None
        assert x.distance((4, 0), (4, 1), cutoff=2) == 1

    def test_cross_edges_shrink_diameter(self):
        # B_4 has diameter 8; X(4)'s cross edges cut it down
        from repro.networks import CompleteBinaryTreeNet

        assert XTree(4).diameter() < CompleteBinaryTreeNet(4).diameter()


class TestOptimalHeight:
    def test_exact_sizes(self):
        from repro.trees import theorem1_guest_size

        for r in range(5):
            assert xtree_optimal_height(theorem1_guest_size(r)) == r

    def test_rounding_up(self):
        assert xtree_optimal_height(49) == 2  # 48 fits X(1), 49 needs X(2)
        assert xtree_optimal_height(1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            xtree_optimal_height(0)
