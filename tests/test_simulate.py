"""Network simulator: engine semantics, programs, end-to-end slowdown."""

from __future__ import annotations

import pytest

from repro.core import order_chunk_embedding, theorem1_embedding
from repro.obs import TraceRecorder
from repro.networks import CompleteBinaryTreeNet, Grid2D, Hypercube, XTree
from repro.simulate import (
    Message,
    PROGRAMS,
    SynchronousNetwork,
    broadcast_program,
    deliver_superstep,
    leaf_gossip_program,
    neighbor_exchange_program,
    prefix_sum_program,
    reduction_program,
    simulate_on_guest,
    simulate_on_host,
)
from repro.trees import make_tree, theorem1_guest_size


class TestEngine:
    def test_single_message_takes_distance_cycles(self):
        net = SynchronousNetwork(Hypercube(4))
        stats = net.deliver([Message(0, 0, 15)])
        assert stats.cycles == 4
        assert stats.delivery_cycle[0] == 4

    def test_local_message_is_free(self):
        net = SynchronousNetwork(Grid2D(2, 2))
        stats = net.deliver([Message(0, (0, 0), (0, 0))])
        assert stats.cycles == 0
        assert stats.delivery_cycle[0] == 0

    def test_contention_serialises(self):
        """Two messages over the same single link need two cycles."""
        net = SynchronousNetwork(Grid2D(1, 2))
        msgs = [Message(i, (0, 0), (0, 1)) for i in range(2)]
        stats = net.deliver(msgs)
        assert stats.cycles == 2
        assert sorted(stats.delivery_cycle.values()) == [1, 2]

    def test_link_capacity_relieves_contention(self):
        net = SynchronousNetwork(Grid2D(1, 2), link_capacity=2)
        msgs = [Message(i, (0, 0), (0, 1)) for i in range(2)]
        assert net.deliver(msgs).cycles == 1

    def test_fifo_order(self):
        net = SynchronousNetwork(Grid2D(1, 3))
        msgs = [Message(i, (0, 0), (0, 2)) for i in range(3)]
        stats = net.deliver(msgs)
        d = stats.delivery_cycle
        assert d[0] < d[1] < d[2]

    def test_route_is_shortest(self):
        net = SynchronousNetwork(XTree(3))
        path = net.route((3, 0), (3, 7))
        assert len(path) - 1 == XTree(3).distance((3, 0), (3, 7))
        for a, b in zip(path, path[1:]):
            assert b in set(XTree(3).neighbors(a))

    def test_link_traffic_recorded(self):
        net = SynchronousNetwork(Grid2D(1, 3))
        stats = net.deliver([Message(0, (0, 0), (0, 2))])
        assert stats.link_traffic == {((0, 0), (0, 1)): 1, ((0, 1), (0, 2)): 1}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SynchronousNetwork(Grid2D(2, 2), link_capacity=0)


class TestPrograms:
    @pytest.fixture
    def tree(self):
        return make_tree("random", 100, seed=8)

    def test_reduction_covers_all_edges_upward(self, tree):
        prog = reduction_program(tree)
        msgs = [m for step in prog.supersteps for m in step]
        assert len(msgs) == tree.n - 1
        assert all(tree.parent(src) == dst for src, dst in msgs)

    def test_reduction_wave_order(self, tree):
        """A node may only fire after all its children fired."""
        prog = reduction_program(tree)
        fired_at = {}
        for i, step in enumerate(prog.supersteps):
            for src, _ in step:
                fired_at[src] = i
        for src in fired_at:
            for c in tree.children(src):
                assert fired_at[c] < fired_at[src]

    def test_broadcast_covers_all_edges_downward(self, tree):
        prog = broadcast_program(tree)
        msgs = [m for step in prog.supersteps for m in step]
        assert len(msgs) == tree.n - 1
        assert all(tree.parent(dst) == src for src, dst in msgs)

    def test_prefix_is_reduce_then_broadcast(self, tree):
        up = reduction_program(tree)
        prog = prefix_sum_program(tree)
        assert prog.supersteps[: up.n_supersteps] == up.supersteps

    def test_neighbor_exchange_counts(self, tree):
        prog = neighbor_exchange_program(tree, rounds=3)
        assert prog.n_supersteps == 3
        assert prog.n_messages == 3 * 2 * (tree.n - 1)

    def test_leaf_gossip_targets_root(self, tree):
        prog = leaf_gossip_program(tree)
        (step,) = prog.supersteps
        assert all(dst == tree.root for _, dst in step)

    def test_ideal_cycles(self, tree):
        assert reduction_program(tree).ideal_cycles() == tree.height()
        assert broadcast_program(tree).ideal_cycles() == tree.height()


class TestEndToEnd:
    def test_guest_simulation_matches_ideal_for_edge_programs(self):
        tree = make_tree("random", 60, seed=1)
        for name in ("reduction", "broadcast", "prefix_sum"):
            prog = PROGRAMS[name](tree)
            stats = simulate_on_guest(prog)
            assert stats.total_cycles == prog.ideal_cycles()

    def test_slowdown_bounded_by_dilation_for_waves(self):
        """Wave programs have no congestion: each superstep's messages
        travel disjoint routes, so superstep cost <= dilation."""
        tree = make_tree("random", theorem1_guest_size(3), seed=2)
        result = theorem1_embedding(tree)
        d = result.embedding.dilation()
        prog = reduction_program(tree)
        stats = simulate_on_host(prog, result.embedding)
        assert max(stats.per_superstep_cycles) <= d + result.embedding.edge_congestion()

    def test_theorem1_beats_chunk_baseline(self):
        """On broadcast waves over a random tree, low dilation wins.

        (Note: on *path-like* guests the chunk baseline can actually win on
        total cycles because consecutive guests co-locate and local delivery
        is free — an effect the simulation benchmark documents.  The random
        family has no such lucky locality.)
        """
        tree = make_tree("random", theorem1_guest_size(4), seed=0)
        good = theorem1_embedding(tree).embedding
        bad = order_chunk_embedding(tree)
        prog = broadcast_program(tree)
        fast = simulate_on_host(prog, good).total_cycles
        slow = simulate_on_host(prog, bad).total_cycles
        assert fast < slow

    def test_mismatched_tree_rejected(self):
        tree_a = make_tree("random", 48, seed=0)
        tree_b = make_tree("random", 48, seed=99)
        emb = theorem1_embedding(tree_a).embedding
        with pytest.raises(ValueError, match="different guest"):
            simulate_on_host(reduction_program(tree_b), emb)

    def test_stats_fields(self):
        tree = make_tree("random", 48, seed=3)
        emb = theorem1_embedding(tree).embedding
        stats = simulate_on_host(neighbor_exchange_program(tree, rounds=2), emb)
        assert stats.n_supersteps == 2
        assert stats.max_link_traffic >= 1
        assert len(stats.per_superstep_cycles) == 2
        assert stats.slowdown >= 1.0

    def test_deliver_superstep_is_the_hand_built_delivery(self):
        # id ids[i] carries pairs[i] through the embedding, injected at 0,
        # with the fault schedule at global cycle fault_offset and phase
        # opened first
        from repro.simulate import FaultSchedule

        tree = make_tree("random", theorem1_guest_size(3), seed=1)
        emb = theorem1_embedding(tree).embedding
        pairs = neighbor_exchange_program(tree, rounds=1).supersteps[0]
        ids = range(100, 100 + len(pairs))
        faults = FaultSchedule.chaos(emb.host, n_cycles=60, link_rate=0.3, seed=2)
        rec = TraceRecorder()
        got = deliver_superstep(
            SynchronousNetwork(emb.host), pairs, emb, ids, "p[3]",
            recorder=rec, faults=faults, ttl=5, fault_offset=7,
        )
        want = SynchronousNetwork(emb.host).deliver_scheduled(
            [(0, Message(m, emb.phi[s], emb.phi[d])) for m, (s, d) in zip(ids, pairs)],
            faults=faults, ttl=5, fault_offset=7,
        )
        assert got == want
        assert rec.phases == ["p[3]"]
