"""Section 1 context constructions, arbitrary-n universality, serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Embedding,
    UniversalGraph,
    complete_tree_into_xtree,
    embed_into_universal_padded,
    embedding_from_dict,
    embedding_to_dict,
    gray_code,
    gray_rank,
    grid_into_hypercube,
    load_embedding,
    make_tree,
    save_embedding,
    spanning_defect,
    theorem1_embedding,
    theorem1_guest_size,
    universal_supergraph,
)
from repro.networks import hamming_distance, host_params, registry_instances


class TestGrayCode:
    def test_first_values(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_consecutive_differ_in_one_bit(self):
        for i in range(255):
            assert hamming_distance(gray_code(i), gray_code(i + 1)) == 1

    def test_bijective_on_ranges(self):
        vals = [gray_code(i) for i in range(64)]
        assert sorted(vals) == list(range(64))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_rank_inverse(self, i):
        assert gray_rank(gray_code(i)) == i

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gray_code(-1)


class TestGridIntoHypercube:
    @pytest.mark.parametrize("rows,cols", [(4, 4), (8, 4), (2, 16), (1, 8), (3, 5)])
    def test_dilation_one(self, rows, cols):
        grid, cube, phi = grid_into_hypercube(rows, cols)
        # injective
        assert len(set(phi.values())) == grid.n_nodes
        # every grid edge is a hypercube edge
        for u, v in grid.edges():
            assert hamming_distance(phi[u], phi[v]) == 1

    def test_optimal_for_power_of_two(self):
        grid, cube, phi = grid_into_hypercube(8, 8)
        assert cube.n_nodes == 64  # no expansion at all

    def test_rejects_bad_sides(self):
        with pytest.raises(ValueError):
            grid_into_hypercube(0, 4)


class TestCompleteTreeIntoXtree:
    def test_subgraph(self):
        guest, xtree, phi = complete_tree_into_xtree(4)
        emb = Embedding(guest, xtree, phi)
        rep = emb.report()
        assert rep.dilation == 1 and rep.load_factor == 1 and rep.expansion == 1.0


class TestUniversalSupergraph:
    def test_smallest_size(self):
        assert universal_supergraph(16).n_nodes == 16
        assert universal_supergraph(17).n_nodes == 48
        assert universal_supergraph(400).n_nodes == 496

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            universal_supergraph(0)

    def test_arbitrary_n_subgraph(self):
        """The paper's conjectured generalisation, realised by padding."""
        for n in (50, 200, 400):
            tree = make_tree("random", n, seed=1)
            emb, result = embed_into_universal_padded(tree)
            graph = emb.host
            assert isinstance(graph, UniversalGraph)
            assert emb.guest.n == graph.n_nodes  # padded up
            # the padded tree spans; the original's edges are among them
            assert spanning_defect(emb, graph) == []

    def test_too_big_tree_rejected(self):
        g = UniversalGraph(5)
        tree = make_tree("random", 100, seed=0)
        with pytest.raises(ValueError):
            embed_into_universal_padded(tree, g)


class TestSerialization:
    def test_roundtrip_xtree(self, tmp_path):
        tree = make_tree("remy", theorem1_guest_size(3), seed=0)
        emb = theorem1_embedding(tree).embedding
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        loaded = load_embedding(path)
        assert loaded.guest == emb.guest
        assert loaded.phi == emb.phi
        assert loaded.dilation() == emb.dilation()

    def test_roundtrip_hypercube(self):
        from repro import theorem3_embedding
        from repro.trees import theorem3_guest_size

        tree = make_tree("random", theorem3_guest_size(3), seed=0)
        emb = theorem3_embedding(tree)
        doc = embedding_to_dict(emb)
        loaded = embedding_from_dict(doc)
        assert loaded.phi == emb.phi
        assert loaded.host.dimension == emb.host.dimension

    def test_roundtrip_universal(self):
        g = UniversalGraph(6)
        tree = make_tree("random", g.n_nodes, seed=0)
        from repro import embed_into_universal

        emb, _ = embed_into_universal(tree, g)
        loaded = embedding_from_dict(embedding_to_dict(emb))
        assert loaded.phi == emb.phi

    def test_json_is_plain(self):
        import json

        tree = make_tree("path", 48, seed=0)
        emb = theorem1_embedding(tree).embedding
        text = json.dumps(embedding_to_dict(emb))
        doc = json.loads(text)
        assert doc["host"] == {"type": "xtree", "height": 1}
        assert len(doc["phi"]) == 48

    @pytest.mark.parametrize("name", sorted(registry_instances()))
    def test_roundtrip_every_registered_host(self, name):
        host = registry_instances()[name]
        guest = make_tree("random", 10, seed=0)
        phi = {v: host.node_at(v % host.n_nodes) for v in guest.nodes()}
        emb = Embedding(guest, host, phi)
        loaded = embedding_from_dict(embedding_to_dict(emb))
        assert loaded.host.name == name
        assert host_params(loaded.host) == host_params(host)
        assert loaded.guest == guest and loaded.phi == emb.phi

    @pytest.mark.parametrize("host", [
        {"type": "xtree", "height": 2},
        {"type": "hypercube", "dimension": 2},
        {"type": "complete-binary-tree", "height": 2},
        {"type": "grid2d", "rows": 2, "cols": 4},
        {"type": "ccc", "dimension": 2},
        {"type": "butterfly", "dimension": 2},
        {"type": "universal", "t": 6, "mode": "paper", "radius": 3},
    ], ids=lambda h: h["type"])
    def test_earlier_format1_documents_load(self, host):
        # host descriptors exactly as earlier builds wrote them
        emb = embedding_from_dict(
            {"format": 1, "guest_parent": [-1, 0, 0], "host": host, "phi": [0, 1, 2]}
        )
        assert emb.host.name == host["type"]
        assert embedding_to_dict(emb)["phi"] == [0, 1, 2]

    def test_radius_mode_universal_host_rejected(self):
        host = {"type": "universal", "t": 6, "mode": "radius", "radius": 3}
        with pytest.raises(ValueError, match="mode"):
            embedding_from_dict(
                {"format": 1, "guest_parent": [-1], "host": host, "phi": [0]}
            )

    def test_bad_format_version(self):
        with pytest.raises(ValueError, match="format"):
            embedding_from_dict({"format": 99})

    def test_bad_host_type(self):
        with pytest.raises(ValueError, match="unknown host"):
            embedding_from_dict(
                {"format": 1, "guest_parent": [-1], "host": {"type": "torus"}, "phi": [0]}
            )

    def test_phi_length_checked(self):
        with pytest.raises(ValueError, match="phi"):
            embedding_from_dict(
                {
                    "format": 1,
                    "guest_parent": [-1, 0],
                    "host": {"type": "xtree", "height": 1},
                    "phi": [0],
                }
            )
