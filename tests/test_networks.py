"""Hypercube, complete binary tree, CCC, butterfly, grid topologies."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.networks import (
    Butterfly,
    CompleteBinaryTreeNet,
    CubeConnectedCycles,
    Grid2D,
    Hypercube,
    hamming_distance,
)
from repro.networks.base import bfs_distance, bfs_distances_from


class TestHypercube:
    def test_size_and_degree(self):
        for d in range(6):
            q = Hypercube(d)
            assert q.n_nodes == 2**d
            for v in q.nodes():
                assert q.degree(v) == d

    def test_distance_is_hamming(self):
        q = Hypercube(6)
        rng = random.Random(0)
        for _ in range(100):
            u, v = rng.randrange(64), rng.randrange(64)
            assert q.distance(u, v) == hamming_distance(u, v)
            assert q.distance(u, v) == bfs_distance(q.neighbors, u, v)

    def test_diameter(self):
        assert Hypercube(5).diameter() == 5

    def test_cutoff(self):
        q = Hypercube(4)
        assert q.distance(0, 15, cutoff=3) is None
        assert q.distance(0, 15, cutoff=4) == 4

    def test_rejects_bad_nodes(self):
        q = Hypercube(3)
        with pytest.raises(ValueError):
            q.distance(0, 8)
        with pytest.raises(ValueError):
            list(q.neighbors(-1))

    def test_edge_count(self):
        # d * 2^(d-1) edges
        for d in range(1, 6):
            assert sum(1 for _ in Hypercube(d).edges()) == d * 2 ** (d - 1)

    def test_bipartite(self):
        q = Hypercube(4)
        g = nx.Graph()
        g.add_nodes_from(q.nodes())
        g.add_edges_from(q.edges())
        assert nx.is_bipartite(g)


class TestCompleteBinaryTreeNet:
    def test_structure(self):
        b = CompleteBinaryTreeNet(3)
        assert b.n_nodes == 15
        assert sum(1 for _ in b.edges()) == 14
        assert b.max_degree() == 3
        assert b.is_connected()

    def test_closed_form_distance(self):
        b = CompleteBinaryTreeNet(5)
        nodes = list(b.nodes())
        rng = random.Random(1)
        for _ in range(150):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert b.distance(u, v) == bfs_distance(b.neighbors, u, v)

    def test_diameter(self):
        assert CompleteBinaryTreeNet(4).diameter() == 8  # leaf to leaf

    def test_index_roundtrip(self):
        b = CompleteBinaryTreeNet(4)
        for i, v in enumerate(b.nodes()):
            assert b.index(v) == i and b.node_at(i) == v


class TestCubeConnectedCycles:
    def test_size(self):
        for d in (1, 2, 3, 4):
            assert CubeConnectedCycles(d).n_nodes == d * 2**d

    def test_constant_degree_3(self):
        ccc = CubeConnectedCycles(4)
        assert ccc.max_degree() == 3
        assert ccc.is_connected()

    def test_degenerate_small_dims_connected(self):
        for d in (1, 2):
            assert CubeConnectedCycles(d).is_connected()

    def test_neighbors_symmetric(self):
        ccc = CubeConnectedCycles(3)
        for u in ccc.nodes():
            for v in ccc.neighbors(u):
                assert u in set(ccc.neighbors(v))

    def test_index_roundtrip(self):
        ccc = CubeConnectedCycles(3)
        for i, v in enumerate(ccc.nodes()):
            assert ccc.index(v) == i and ccc.node_at(i) == v


class TestButterfly:
    def test_size(self):
        for d in (1, 2, 3, 4):
            assert Butterfly(d).n_nodes == (d + 1) * 2**d

    def test_degrees(self):
        bf = Butterfly(3)
        for (level, w) in bf.nodes():
            deg = bf.degree((level, w))
            assert deg == (2 if level in (0, bf.dimension) else 4)

    def test_connected_and_symmetric(self):
        bf = Butterfly(3)
        assert bf.is_connected()
        for u in bf.nodes():
            for v in bf.neighbors(u):
                assert u in set(bf.neighbors(v))

    def test_level_zero_reaches_all_rows(self):
        """Any row is reachable from level 0 in exactly d hops downward."""
        bf = Butterfly(4)
        dist = bfs_distances_from(bf.neighbors, (0, 0))
        for w in range(16):
            assert dist[(4, w)] == 4


class TestGrid2D:
    def test_structure(self):
        g = Grid2D(3, 5)
        assert g.n_nodes == 15
        assert g.is_connected()
        assert g.max_degree() == 4

    def test_manhattan_distance(self):
        g = Grid2D(4, 6)
        nodes = list(g.nodes())
        rng = random.Random(2)
        for _ in range(100):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert g.distance(u, v) == bfs_distance(g.neighbors, u, v)

    def test_single_cell(self):
        g = Grid2D(1, 1)
        assert g.n_nodes == 1 and list(g.neighbors((0, 0))) == []

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Grid2D(0, 3)


class TestTopologyProtocol:
    """The shared Topology surface behaves uniformly across networks."""

    @pytest.mark.parametrize(
        "net",
        [Hypercube(3), CompleteBinaryTreeNet(3), CubeConnectedCycles(3), Butterfly(2), Grid2D(3, 3)],
        ids=lambda n: n.name,
    )
    def test_protocol(self, net):
        assert len(net) == net.n_nodes == len(list(net.nodes()))
        first = next(iter(net.nodes()))
        assert first in net
        assert ("definitely", "not", "a", "node") not in net
        assert len(set(net.nodes())) == net.n_nodes
        assert all(u in net and v in net for u, v in net.edges())
        d = net.distances_from(first)
        assert d[first] == 0 and len(d) == net.n_nodes
