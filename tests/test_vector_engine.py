"""Parity gate for the struct-of-arrays delivery kernel.

The vector kernel (:mod:`repro.simulate.vector_engine`) must return
*bit-identical* :class:`~repro.simulate.engine.DeliveryStats` to the
classic reference loop (``SynchronousNetwork.deliver_classic``) on every
delivery it accepts — these tests are the gate: random schedules over
every registry topology, the adversarial programs through real
embeddings, dispatch/fallback behaviour, the dense edge-id routing table
against the classic neighbour scan, and the runtime's cross-job batching
split.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.oracle import DistanceOracle, oracle_for
from repro.core.xtree_embed import theorem1_embedding
from repro.networks import Hypercube, UniversalGraph, XTree, registry_instances
from repro.obs import TraceRecorder
from repro.runtime import JobSpec, Runtime
from repro.simulate import (
    PROGRAMS,
    ArraySchedule,
    Message,
    SynchronousNetwork,
    TreeProgram,
    deliver_superstep,
    simulate_on_host,
    simulated_prefix,
    simulated_reduction,
)
from repro.simulate.faults import FaultSchedule
from repro.simulate.mapping import ARRAY_MIN_MESSAGES
from repro.simulate.vector_engine import (
    VECTOR_MAX_NODES,
    vector_deliver_scheduled,
    vector_supported,
)
from repro.trees import make_tree, theorem1_guest_size

TOPOS = registry_instances(2)
STAT_FIELDS = (
    "cycles",
    "n_messages",
    "delivery_cycle",
    "link_traffic",
    "max_queue",
    "failed",
    "n_reroutes",
)


def assert_stats_equal(a, b):
    for field in STAT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def assert_same_delivery(a, b):
    """Every field equal, and both dicts filled in the same order."""
    assert a == b
    assert list(a.delivery_cycle.items()) == list(b.delivery_cycle.items())
    assert list(a.link_traffic.items()) == list(b.link_traffic.items())


def as_arrays(topology, schedule):
    """The :class:`ArraySchedule` of an ``(inject, Message)`` list."""
    index = topology.index
    rows = [(inject, m.msg_id, index(m.src), index(m.dst)) for inject, m in schedule]
    return ArraySchedule(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def both_engines(topology, schedule, link_capacity=1):
    classic = SynchronousNetwork(topology, link_capacity=link_capacity)
    vector = SynchronousNetwork(topology, link_capacity=link_capacity)
    assert vector_supported(vector, None, None, None) is None
    return (
        classic.deliver_classic(list(schedule)),
        vector_deliver_scheduled(vector, list(schedule)),
    )


def classic_then_vector(monkeypatch, run):
    """``run()`` twice: on the reference loop (the dispatch predicate
    patched to report a blocker), then as dispatched, on the kernel."""
    import repro.simulate.engine as engine_mod

    with monkeypatch.context() as m:
        m.setattr(engine_mod, "vector_supported", lambda *args: "forced")
        classic = run()
    return classic, run()


@st.composite
def schedules(draw):
    """Random (inject, Message) schedules over a registry topology."""
    name = draw(st.sampled_from(sorted(TOPOS)))
    topology = TOPOS[name]
    nodes = list(topology.nodes())
    n_msgs = draw(st.integers(min_value=0, max_value=60))
    schedule = []
    for mid in range(n_msgs):
        src = nodes[draw(st.integers(0, len(nodes) - 1))]
        dst = nodes[draw(st.integers(0, len(nodes) - 1))]  # self-sends included
        inject = draw(
            st.one_of(
                st.integers(0, 4),
                st.integers(0, 300),  # sparse: exercises the idle-gap jumps
            )
        )
        schedule.append((inject, Message(mid, src, dst)))
    cap = draw(st.integers(1, 3))
    return topology, schedule, cap


class TestScheduleParity:
    @given(schedules())
    @settings(max_examples=120, deadline=None)
    def test_random_schedules_bit_identical(self, case):
        topology, schedule, cap = case
        classic, vector = both_engines(topology, schedule, cap)
        assert_stats_equal(classic, vector)
        # the array form of the schedule, on the kernel and on the
        # reference loop, equals the list delivery on the same engine
        arrays = as_arrays(topology, schedule)
        net = SynchronousNetwork(topology, link_capacity=cap)
        assert_same_delivery(vector_deliver_scheduled(net, arrays), vector)
        assert_same_delivery(net.deliver_classic(arrays), classic)

    def test_hot_spot_all_to_one(self):
        for topology in TOPOS.values():
            nodes = list(topology.nodes())
            hot = nodes[len(nodes) // 2]
            schedule = [
                (0, Message(i, src, hot))
                for i, src in enumerate(n for n in nodes if n != hot)
            ]
            for cap in (1, 2):
                assert_stats_equal(*both_engines(topology, schedule, cap))

    def test_permutation_waves(self):
        rng = random.Random(7)
        for topology in TOPOS.values():
            nodes = list(topology.nodes())
            targets = nodes[:]
            schedule = []
            mid = 0
            for wave in range(3):
                rng.shuffle(targets)
                for src, dst in zip(nodes, targets):
                    schedule.append((2 * wave, Message(mid, src, dst)))
                    mid += 1
            assert_stats_equal(*both_engines(topology, schedule, 2))

    def test_empty_and_self_only_schedules(self):
        topology = TOPOS["xtree"]
        root = next(iter(topology.nodes()))
        for schedule in ([], [(9, Message(0, root, root))]):
            classic, vector = both_engines(topology, schedule)
            assert_stats_equal(classic, vector)
        assert both_engines(topology, [(9, Message(0, root, root))])[1].cycles == 9

    def test_duplicate_and_negative_raise_on_vector(self):
        topology = TOPOS["xtree"]
        a, b = list(topology.nodes())[:2]
        net = SynchronousNetwork(topology)
        with pytest.raises(ValueError, match="duplicate msg_id"):
            vector_deliver_scheduled(
                net, [(0, Message(0, a, b)), (1, Message(0, b, a))]
            )
        with pytest.raises(ValueError, match="non-negative"):
            vector_deliver_scheduled(net, [(-1, Message(0, a, b))])

    @pytest.mark.parametrize(
        "src, dst", [((9, 9), (0, 0)), ((0, 0), (9, 9)), ((9, 9), (9, 9))]
    )
    def test_endpoint_not_a_node_raises_before_injection(self, src, dst):
        """Both engines reject a label outside the host, naming the message
        and the label, before the valid message ahead of it is injected."""
        topology = XTree(3)
        schedule = [(0, Message(0, (1, 0), (2, 3))), (0, Message(1, src, dst))]
        error = r"msg_id 1: \(9, 9\) is not a node of xtree"
        with pytest.raises(ValueError, match=error):
            SynchronousNetwork(topology).deliver_scheduled(list(schedule))
        with pytest.raises(ValueError, match=error):
            vector_deliver_scheduled(SynchronousNetwork(topology), list(schedule))
        recorder = TraceRecorder()
        with pytest.raises(ValueError, match=error):
            SynchronousNetwork(topology).deliver_classic(
                list(schedule), recorder=recorder
            )
        assert recorder.events == []


class TestArraySchedule:
    """The array form's own validation, and the guest-pair gather and the
    size cut of :func:`deliver_superstep`."""

    @pytest.mark.parametrize("columns, error", [
        (([-1], [0], [0], [1]), "non-negative"),
        (([0], [0], [-1], [1]), "is not a node"),
        (([0], [0], [0], [15]), "is not a node"),  # X(3) has 15 nodes
        (([0, 0, 0], [3, 1, 3], [0, 1, 2], [1, 2, 3]), "duplicate msg_id 3"),
        (([0, 0], [0, 1], [0, 1], [1]), "differ in length"),
    ], ids=["negative-inject", "endpoint-below-0", "endpoint-past-n", "duplicate-id",
            "unequal-lengths"])
    def test_invalid_arrays_raise_on_both_engines(self, columns, error):
        arrays = ArraySchedule(*(np.array(col, dtype=np.int64) for col in columns))
        topology = XTree(3)
        with pytest.raises(ValueError, match=error):
            SynchronousNetwork(topology).deliver_scheduled(arrays)
        # a listening recorder sends the delivery to the reference loop
        recorder = TraceRecorder()
        with pytest.raises(ValueError, match=error):
            SynchronousNetwork(topology).deliver_scheduled(arrays, recorder=recorder)
        assert recorder.events == []

    @pytest.mark.parametrize("n_pairs", [ARRAY_MIN_MESSAGES - 1, ARRAY_MIN_MESSAGES])
    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_guest_pair_outside_the_guest_raises(self, n_pairs, bad):
        """On both sides of the cut; -1 must not wrap to the last image."""
        tree = make_tree("random", 48, seed=3)
        embedding = theorem1_embedding(tree).embedding
        bad = tree.n if bad == "n" else bad
        pairs = [(v, v + 1) for v in range(n_pairs - 1)] + [(bad, 0)]
        with pytest.raises(ValueError, match=f"guest node {bad} is not in the embedding"):
            deliver_superstep(
                SynchronousNetwork(embedding.host), pairs, embedding,
                range(n_pairs), "p",
            )

    def test_supersteps_around_the_cut_match_the_reference_loop(self, monkeypatch):
        """Supersteps of cut - 1, cut and cut + 1 messages (the list, then the
        arrays), self-messages among them: same stats as the reference loop."""
        tree = make_tree("random", theorem1_guest_size(3), seed=2)
        embedding = theorem1_embedding(tree).embedding
        rng = random.Random(4)
        steps = tuple(
            tuple((rng.randrange(tree.n), rng.randrange(tree.n)) for _ in range(size))
            for size in (ARRAY_MIN_MESSAGES - 1, ARRAY_MIN_MESSAGES, ARRAY_MIN_MESSAGES + 1)
        )
        image = embedding.image_idx
        assert any(image[a] == image[b] for step in steps for a, b in step)
        program = TreeProgram("cut", tree, steps)

        def run():
            net = SynchronousNetwork(embedding.host)
            stats = [
                deliver_superstep(net, pairs, embedding, range(len(pairs)), "p")
                for pairs in steps
            ]
            return stats, simulate_on_host(program, embedding)

        (classic, classic_run), (vector, vector_run) = classic_then_vector(monkeypatch, run)
        for a, b in zip(classic, vector):
            assert_stats_equal(a, b)
        assert classic_run == vector_run

    def test_image_array_is_read_only(self):
        embedding = theorem1_embedding(make_tree("random", 48, seed=3)).embedding
        assert [embedding.host.node_at(i) for i in embedding.image_idx.tolist()] == [
            embedding.phi[v] for v in range(embedding.guest.n)
        ]
        with pytest.raises(ValueError):
            embedding.image_idx[0] = 1


def out_of_order_hot_spot(topology, seed):
    """All-to-one traffic into deep queues whose injection cycles fall in
    schedule order, with late messages (small injection cycles) interleaved:
    a fresh message often sits behind a larger seq injected earlier."""
    rng = random.Random(seed)
    nodes = list(topology.nodes())
    hot = nodes[rng.randrange(len(nodes))]
    schedule = []
    for mid in range(6 * len(nodes)):
        src = nodes[rng.randrange(len(nodes))]
        dst = hot if rng.random() < 0.85 else nodes[rng.randrange(len(nodes))]
        if rng.random() < 0.75:
            inject = 2 * (6 - mid // len(nodes))  # decreasing in schedule order
        else:
            inject = rng.randrange(14)  # a late message interleaved
        schedule.append((inject, Message(mid, src, dst)))
    return schedule


class TestSettlePath:
    """The kernel keys a queued message on its seq once its place in the
    classic deque is settled; these schedules drive the unsettled keys and
    the re-keying of a hit node's run, which no barrier schedule reaches."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("topology", [XTree(4), Hypercube(5)], ids=["xtree", "hypercube"])
    @pytest.mark.parametrize("seed", range(4))
    def test_out_of_order_hot_spots(self, topology, cap, seed):
        schedule = out_of_order_hot_spot(topology, seed)
        assert_stats_equal(*both_engines(topology, schedule, cap))

    def test_hot_spot_on_theorem1_embedding(self, monkeypatch):
        tree = make_tree("random", theorem1_guest_size(5), seed=1)
        embedding = theorem1_embedding(tree).embedding
        program = PROGRAMS["hot_spot"](embedding.guest, seed=5)
        classic, vector = classic_then_vector(
            monkeypatch, lambda: simulate_on_host(program, embedding)
        )
        assert classic.total_cycles == vector.total_cycles
        assert classic.per_superstep_cycles == vector.per_superstep_cycles
        assert classic.max_link_traffic == vector.max_link_traffic
        assert classic.max_queue == vector.max_queue

    def test_keys_past_int32(self):
        """G_n at t = 10 has 233,744 directed links; with 5,000 messages a
        key, link id times a stride of at least 2 * 5,000, passes 2^31."""
        topology = UniversalGraph(10)
        nodes = list(topology.nodes())
        rng = random.Random(2)
        schedule = [
            (rng.randrange(3), Message(mid, rng.choice(nodes), rng.choice(nodes)))
            for mid in range(5000)
        ]
        classic, vector = both_engines(topology, schedule)
        assert_stats_equal(classic, vector)
        oracle = oracle_for(topology)
        index = topology.index
        top_link = max(
            int(oracle.indptr[index(u)]) + list(topology.neighbors(u)).index(v)
            for u, v in vector.link_traffic
        )
        assert top_link * 2 * len(schedule) > 2**31


class TestProgramParity:
    """The adversarial programs through a real Theorem 1 embedding."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("barrier", [True, False])
    def test_supersteps_bit_identical(self, program, barrier, monkeypatch):
        tree = make_tree("random", 48, seed=3)  # 16*(2^2-1): Theorem 1 size
        embedding = theorem1_embedding(tree).embedding
        runs = classic_then_vector(
            monkeypatch,
            lambda: simulate_on_host(
                PROGRAMS[program](embedding.guest), embedding, barrier=barrier
            ),
        )
        assert runs[0].total_cycles == runs[1].total_cycles
        assert runs[0].per_superstep_cycles == runs[1].per_superstep_cycles
        assert runs[0].max_link_traffic == runs[1].max_link_traffic
        assert runs[0].max_queue == runs[1].max_queue

    def test_compute_results_identical(self, monkeypatch):
        # the float input sums differently in another fold order: the
        # engines deliver a parent's two arrivals in different orders
        floats = make_tree("random", theorem1_guest_size(5), seed=0)
        float_values = [0.0] * floats.n
        float_values[573], float_values[879], float_values[1007] = 1.0, 1e16, -1e16 + 2
        ints = make_tree("random", 48, seed=5)
        for tree, values in ((ints, list(range(ints.n))), (floats, float_values)):
            embedding = theorem1_embedding(tree).embedding
            for compute in (simulated_reduction, simulated_prefix):
                classic, vector = classic_then_vector(
                    monkeypatch, lambda: compute(embedding, values)
                )
                assert classic == vector


class TestDispatch:
    def _schedule(self, topology):
        a, b = list(topology.nodes())[:2]
        return [(0, Message(0, a, b))]

    def test_auto_uses_vector_when_supported(self, monkeypatch):
        import repro.simulate.engine as engine_mod

        calls = []
        real = engine_mod.vector_deliver_scheduled
        monkeypatch.setattr(
            engine_mod,
            "vector_deliver_scheduled",
            lambda net, sched: calls.append(1) or real(net, sched),
        )
        topology = TOPOS["xtree"]
        SynchronousNetwork(topology).deliver_scheduled(self._schedule(topology))
        assert calls, "auto-dispatch should reach the vector kernel"

    def test_auto_falls_back_silently(self, monkeypatch):
        """Recorder / faults / ttl / adaptive router / failed links all
        force the classic loop, and the dispatch predicate names each."""
        import repro.simulate.engine as engine_mod

        monkeypatch.setattr(
            engine_mod,
            "vector_deliver_scheduled",
            lambda net, sched: pytest.fail("vector kernel ran on unsupported input"),
        )
        topology = TOPOS["xtree"]
        nodes = list(topology.nodes())
        schedule = self._schedule(topology)
        u, v = nodes[0], next(iter(topology.neighbors(nodes[0])))
        cases = [
            (SynchronousNetwork(topology), {"recorder": TraceRecorder()}),
            (SynchronousNetwork(topology), {"ttl": 50}),
            (
                SynchronousNetwork(topology),
                {"faults": FaultSchedule.from_obj([])},
            ),
            (SynchronousNetwork(topology, router="adaptive"), {}),
            (SynchronousNetwork(topology, failed_links=[(u, v)]), {}),
        ]
        blockers = ["recorder", "TTL", "FaultSchedule", "adaptive", "failed"]
        for (net, kwargs), blocker in zip(cases, blockers):
            stats = net.deliver_scheduled(list(schedule), **kwargs)
            assert stats.n_messages == 1
            why = vector_supported(
                net, kwargs.get("recorder"), kwargs.get("faults"), kwargs.get("ttl")
            )
            assert blocker in why, why

    def test_oversized_topology_falls_back(self, monkeypatch):
        import repro.simulate.vector_engine as vec_mod

        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", 4)
        topology = TOPOS["xtree"]
        schedule = self._schedule(topology)
        net = SynchronousNetwork(topology)
        assert "VECTOR_MAX_NODES" in vector_supported(net, None, None, None)
        classic = SynchronousNetwork(topology).deliver_classic(list(schedule))
        assert_stats_equal(net.deliver_scheduled(list(schedule)), classic)


class TestNextHopTables:
    def test_matrix_matches_classic_scan(self):
        """The oracle's edge-id table reproduces the smallest-index policy
        of the classic per-call neighbour scan, entry for entry: every edge
        id names a CSR slot of its row (the link the kernel charges), and
        the node that slot leads to is the scan's hop."""
        for topology in TOPOS.values():
            oracle = DistanceOracle(topology)
            eid = oracle.next_hop_edges()
            indptr, indices = oracle.indptr, oracle.indices
            matrix = np.where(eid >= 0, indices[eid], -1)
            nodes = list(topology.nodes())
            net = SynchronousNetwork(topology)
            net._dense_nh = False  # force the classic BFS-table scan
            rng = random.Random(11)
            pairs = [
                (rng.randrange(len(nodes)), rng.randrange(len(nodes)))
                for _ in range(80)
            ]
            for i, j in pairs:
                if i == j:
                    assert matrix[i, j] == eid[i, j] == -1
                    continue
                expected = net.next_hop(nodes[i], nodes[j])
                assert nodes[matrix[i, j]] == expected, (topology.name, i, j)
                assert indptr[i] <= eid[i, j] < indptr[i + 1], (topology.name, i, j)

    def test_matrix_memoised_and_frozen(self):
        oracle = DistanceOracle(TOPOS["hypercube"])
        matrix = oracle.next_hop_edges()
        assert oracle.next_hop_edges() is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 5

    def test_network_next_hop_uses_dense_tables(self):
        topology = TOPOS["grid2d"]
        net = SynchronousNetwork(topology)
        nodes = list(topology.nodes())
        hop = net.next_hop(nodes[0], nodes[-1])
        assert net._dense_nh is not None and net._dense_nh is not False
        # failing a link abandons the dense path and stays correct
        u, v = nodes[0], next(iter(topology.neighbors(nodes[0])))
        net.fail_link(u, v)
        rerouted = net.next_hop(nodes[0], nodes[-1])
        assert rerouted in set(net.live_neighbors(nodes[0]))
        net.heal_link(u, v)
        assert net.next_hop(nodes[0], nodes[-1]) == hop


    def test_network_next_hop_past_the_bound_reads_bfs_tables(self):
        # a host past VECTOR_MAX_NODES gets no (n, n) table, from the
        # classic loop either: its hops come from the BFS tables
        topology = XTree(11)
        assert topology.n_nodes > VECTOR_MAX_NODES
        net = SynchronousNetwork(topology)
        nodes = list(topology.nodes())
        route = net.route(nodes[-1], nodes[-2])
        assert net._dense_nh is False
        assert "_oracle" not in topology.__dict__
        assert len(route) - 1 == topology.distance(nodes[-1], nodes[-2])


class TestRuntimeBatching:
    def _runtime(self):
        rt = Runtime(XTree(4))
        rt.admit(
            JobSpec(
                name="a", program="reduction", tree_n=40, tree_seed=1,
                capacity=8, height=4,
            )
        )
        rt.admit(
            JobSpec(
                name="b", program="broadcast", tree_n=40, tree_seed=2,
                capacity=8, height=4,
            )
        )
        return rt

    def test_batched_per_job_stats_bit_identical(self):
        seq = self._runtime().run()
        bat = self._runtime().run(batch=True)
        assert bat.makespan <= seq.makespan  # concurrency can only help
        for j_seq, j_bat in zip(seq.jobs, bat.jobs):
            assert j_seq["name"] == j_bat["name"]
            assert j_seq["status"] == j_bat["status"] == "done"
            assert j_seq["n_delivered"] == j_bat["n_delivered"]
            assert j_seq["failed"] == j_bat["failed"]
            # per-superstep cycle *deltas* are the solo delivery makespans;
            # link-disjoint batching must not change any of them
            for report in (j_seq, j_bat):
                steps = report["per_step_cycles"]
                report["deltas"] = [
                    b - a for a, b in zip([0] + steps, steps)
                ]
            assert j_seq["deltas"] == j_bat["deltas"]

    def test_batching_falls_back_with_faults(self):
        rt = self._runtime()
        rt.faults = FaultSchedule.from_obj([])
        ran = rt.step_batch()
        assert len(ran) == 1  # fell back to the one-job step()

    def test_batching_falls_back_when_observing(self):
        rt = self._runtime()
        rt.recorder = TraceRecorder()
        ran = rt.step_batch()
        assert len(ran) == 1

    def test_single_job_uses_plain_step(self):
        rt = Runtime(XTree(4))
        rt.admit(
            JobSpec(
                name="solo", program="reduction", tree_n=40, tree_seed=1,
                capacity=8, height=4,
            )
        )
        assert len(rt.step_batch()) == 1
        assert rt.step_batch() != [] or rt.active_jobs() == []


class TestBlockerAggregation:
    """``vector_supported`` reports *every* blocker at once."""

    def _msg(self, topology):
        a, b = list(topology.nodes())[:2]
        return [(0, Message(0, a, b))]

    def test_all_blockers_reported_together(self, monkeypatch):
        import repro.simulate.vector_engine as vec_mod

        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", 1)
        topology = TOPOS["xtree"]
        nodes = list(topology.nodes())
        u, v = nodes[0], next(iter(topology.neighbors(nodes[0])))
        net = SynchronousNetwork(
            topology, router="adaptive", failed_links=[(u, v)]
        )
        net.link_delays[(u, v)] = 2
        reason = vec_mod.vector_supported(
            net, TraceRecorder(), FaultSchedule.from_obj([]), 50
        )
        for needle in ("FaultSchedule", "TTL", "recorder", "adaptive",
                       "failed", "slowed", "VECTOR_MAX_NODES"):
            assert needle in reason, f"missing blocker {needle!r} in: {reason}"
        # all seven independent blockers are joined, not just the first
        assert reason.count(";") >= 6, reason

    def test_supported_when_clean(self):
        net = SynchronousNetwork(TOPOS["xtree"])
        assert vector_supported(net, None, None, None) is None

    def test_bound_is_inclusive(self, monkeypatch):
        # a topology of exactly VECTOR_MAX_NODES nodes still vectorises
        import repro.simulate.vector_engine as vec_mod

        topology = TOPOS["xtree"]
        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", topology.n_nodes)
        net = SynchronousNetwork(topology)
        assert vector_supported(net, None, None, None) is None
        assert vector_deliver_scheduled(net, self._msg(topology)).n_messages == 1
        below = topology.n_nodes - 1
        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", below)
        assert f"VECTOR_MAX_NODES = {below})" in vector_supported(
            net, None, None, None
        )
