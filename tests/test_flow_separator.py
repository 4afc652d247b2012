"""The flow-based separator engine: Dinic, vertex cuts, the protocol."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.separators.lemma import lemma2_bound
from repro.core.xtree_embed import embed_binary_tree, theorem1_embedding
from repro.obs import counters, reset_counters
from repro.separators import (
    SEPARATORS,
    DinicMaxFlow,
    FlowSeparator,
    PaperSeparator,
    make_separator,
    min_vertex_cut,
)
from repro.trees import components_after_removal, make_tree

from strategies import binary_trees
from test_separators import _pick_designated


class TestDinic:
    def test_single_edge(self):
        f = DinicMaxFlow(2)
        f.add_edge(0, 1, 3)
        assert f.max_flow(0, 1) == 3

    def test_bottleneck_path(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 5)
        f.add_edge(1, 2, 2)
        f.add_edge(2, 3, 5)
        assert f.max_flow(0, 3) == 2

    def test_parallel_paths_sum(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 1)
        f.add_edge(1, 3, 1)
        f.add_edge(0, 2, 2)
        f.add_edge(2, 3, 2)
        assert f.max_flow(0, 3) == 3

    def test_disconnected_is_zero(self):
        f = DinicMaxFlow(3)
        f.add_edge(0, 1, 4)
        assert f.max_flow(0, 2) == 0

    def test_same_terminal_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            DinicMaxFlow(2).max_flow(1, 1)

    def test_residual_reachability_is_source_side(self):
        f = DinicMaxFlow(4)
        f.add_edge(0, 1, 1)
        f.add_edge(0, 2, 1)
        f.add_edge(1, 3, 1)
        f.add_edge(2, 3, 1)
        f.max_flow(0, 3)
        reach = f.residual_reachable(0)
        assert reach[0] and not reach[3]


class TestMinVertexCut:
    def test_diamond_cuts_both_middles(self):
        # 0 - {1,2} - 3: two vertex-disjoint paths, cut = the middles
        nodes = [0, 1, 2, 3]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        value, cut, sink_side = min_vertex_cut(nodes, edges, 0, 3)
        assert value == 2
        assert cut == {1, 2}
        assert 3 in sink_side

    def test_path_cuts_single_vertex(self):
        value, cut, _ = min_vertex_cut(
            range(4), [(0, 1), (1, 2), (2, 3)], 0, 3
        )
        assert value == 1
        assert cut in ({1}, {2})

    def test_uncuttable_forces_detour(self):
        value, cut, _ = min_vertex_cut(
            range(4), [(0, 1), (1, 2), (2, 3)], 0, 3, uncuttable=[1]
        )
        assert value == 1
        assert cut == {2}

    def test_cut_sink_lands_on_sink(self):
        # everything between source and sink uncuttable: with
        # cut_sink=True the unit cut must be the sink vertex itself
        value, cut, sink_side = min_vertex_cut(
            range(4), [(0, 1), (1, 2), (2, 3)], 0, 3,
            uncuttable=[1, 2], cut_sink=True,
        )
        assert value == 1
        assert cut == {3}
        assert sink_side == {3}

    def test_terminals_must_be_members(self):
        with pytest.raises(ValueError, match="inside the vertex set"):
            min_vertex_cut([0, 1], [(0, 1)], 0, 9)


def assert_flow_contract(tree, sep, r1, r2, delta, engine):
    """Structural postconditions every flow separation must satisfy;
    balance is checked against the engine's own diagnostics (violations
    beyond the Lemma 2 tolerance are counted, not hidden)."""
    uni = frozenset(tree.nodes())
    assert sep.side1 | sep.side2 == uni
    assert not (sep.side1 & sep.side2)
    assert sep.s1 <= sep.side1 and sep.s2 <= sep.side2
    assert {r1, r2} <= sep.s1 | sep.s2
    crossing = {
        frozenset((u, v))
        for u, v in tree.edges()
        if (u in sep.side1) != (v in sep.side1)
    }
    assert crossing == {frozenset(e) for e in sep.cut_edges}
    for a, b in sep.cut_edges:
        assert a in sep.s1 and b in sep.s2
    for side, s in ((sep.side1, sep.s1), (sep.side2, sep.s2)):
        for comp in components_after_removal(tree, s & side, within=side):
            assert comp.n_attachment_edges <= 2
    stats = engine.last_stats
    assert stats["achieved"] == sep.n2
    assert stats["balance_error"] == abs(sep.n2 - delta)
    assert stats["tolerance"] == lemma2_bound(delta)


class TestFlowSeparator:
    def test_path_split_balanced(self):
        t = make_tree("path", 30)
        engine = FlowSeparator()
        sep = engine.split(t, 0, 29, 12)
        assert_flow_contract(t, sep, 0, 29, 12, engine)
        assert abs(sep.n2 - 12) <= lemma2_bound(12)

    def test_random_tree_sweep(self):
        engine = FlowSeparator()
        rng = random.Random(4)
        for seed in range(4):
            t = make_tree("random", 120, seed=seed)
            r1, r2 = _pick_designated(t, rng)
            for delta in (20, 60, 100):
                sep = engine.split(t, r1, r2, delta)
                assert_flow_contract(t, sep, r1, r2, delta, engine)
                assert abs(sep.n2 - delta) <= lemma2_bound(delta)

    @settings(max_examples=30, deadline=None)
    @given(
        binary_trees(min_nodes=8, max_nodes=80),
        st.randoms(use_true_random=False),
    )
    def test_property_structural_soundness(self, tree, rng):
        engine = FlowSeparator()
        r1, r2 = _pick_designated(tree, rng)
        delta = rng.randrange(1, tree.n)
        sep = engine.split(tree, r1, r2, delta)
        assert_flow_contract(tree, sep, r1, r2, delta, engine)

    def test_subtree_universe(self):
        t = make_tree("random", 60, seed=1)
        comps = components_after_removal(t, {0})
        piece = max(comps, key=lambda c: len(c.nodes)).nodes
        r1 = next(v for v in sorted(piece) if t.degree(v) <= 3)
        r2 = max(piece)
        engine = FlowSeparator()
        delta = len(piece) // 2
        sep = engine.split(t, r1, r2, delta, universe=piece)
        assert sep.side1 | sep.side2 == frozenset(piece)

    def test_delta_out_of_range(self):
        t = make_tree("path", 10)
        with pytest.raises(ValueError, match="delta must be in"):
            FlowSeparator().split(t, 0, 9, 10)

    def test_r2_outside_universe(self):
        t = make_tree("path", 10)
        with pytest.raises(ValueError, match="not in the piece universe"):
            FlowSeparator().split(t, 0, 9, 3, universe=range(5))

    def test_max_cuts_validated(self):
        with pytest.raises(ValueError, match="max_cuts"):
            FlowSeparator(max_cuts=0)

    def test_counters_emitted(self):
        reset_counters()
        engine = FlowSeparator()
        t = make_tree("random", 50, seed=2)
        engine.split(t, 0, 49, 25)
        got = counters()
        assert got.get("separator.flow.calls", 0) == 1
        assert got.get("separator.flow.dinic_calls", 0) >= 1


class TestSeparatorProtocol:
    def test_registry_names(self):
        assert set(SEPARATORS) == {"paper", "flow"}
        assert SEPARATORS["paper"] is PaperSeparator
        assert SEPARATORS["flow"] is FlowSeparator

    def test_make_separator_resolution(self):
        assert make_separator(None) is None
        inst = FlowSeparator()
        assert make_separator(inst) is inst
        assert isinstance(make_separator("paper"), PaperSeparator)
        assert isinstance(make_separator("flow"), FlowSeparator)

    def test_make_separator_unknown(self):
        with pytest.raises(ValueError, match="unknown separator 'nope'"):
            make_separator("nope")

    def test_paper_counter(self):
        reset_counters()
        t = make_tree("random", 40, seed=0)
        PaperSeparator().split(t, 0, 39, 20)
        assert counters().get("separator.paper.calls", 0) == 1


class TestEmbeddingIntegration:
    @pytest.mark.parametrize("family", ["random", "path", "caterpillar"])
    def test_paper_selection_is_bit_identical(self, family):
        tree = make_tree(family, 112, seed=3)
        default = embed_binary_tree(tree).embedding
        paper = embed_binary_tree(tree, separator="paper").embedding
        assert default.phi == paper.phi

    @pytest.mark.parametrize("family", ["random", "path", "skewed"])
    def test_flow_embedding_is_sound(self, family):
        tree = make_tree(family, 112, seed=0)
        result = embed_binary_tree(tree, separator="flow", validate=True)
        assert set(result.embedding.phi) == set(tree.nodes())
        assert result.load_factor <= 16

    def test_instance_accepted(self):
        tree = make_tree("random", 112, seed=1)
        result = theorem1_embedding(tree, separator=FlowSeparator(max_cuts=6))
        assert len(result.embedding.phi) == tree.n

    def test_unknown_separator_name_raises(self):
        tree = make_tree("random", 112, seed=1)
        with pytest.raises(ValueError, match="unknown separator"):
            theorem1_embedding(tree, separator="mincut")
