"""Parity gate for the struct-of-arrays engine fast path.

The vector kernel (:mod:`repro.simulate.vector_engine`) must return
*bit-identical* :class:`~repro.simulate.engine.DeliveryStats` to the
classic reference loop on every delivery it accepts — these tests are the
gate: random schedules over every registry topology, the adversarial
programs through real embeddings, dispatch/fallback behaviour, the dense
next-hop tables against the classic neighbour scan, and the runtime's
cross-job batching split.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.oracle import DistanceOracle
from repro.core.xtree_embed import theorem1_embedding
from repro.networks import XTree, registry_instances
from repro.obs import NullRecorder, TraceRecorder
from repro.runtime import JobSpec, Runtime
from repro.simulate import (
    ENGINES,
    PROGRAMS,
    Message,
    SynchronousNetwork,
    simulate_on_host,
    simulated_prefix,
    simulated_reduction,
)
from repro.simulate.faults import FaultSchedule
from repro.trees import make_tree

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


def both_engines(topology, schedule, link_capacity=1):
    classic = SynchronousNetwork(topology, link_capacity=link_capacity)
    vector = SynchronousNetwork(topology, link_capacity=link_capacity)
    return (
        classic.deliver_scheduled(list(schedule), engine="classic"),
        vector.deliver_scheduled(list(schedule), engine="vector"),
    )


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
            net.deliver_scheduled(
                [(0, Message(0, a, b)), (1, Message(0, b, a))], engine="vector"
            )
        with pytest.raises(ValueError, match="non-negative"):
            net.deliver_scheduled([(-1, Message(0, a, b))], engine="vector")


class TestProgramParity:
    """The adversarial programs through a real Theorem 1 embedding."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("barrier", [True, False])
    def test_supersteps_bit_identical(self, program, barrier):
        tree = make_tree("random", 48, seed=3)  # 16*(2^2-1): Theorem 1 size
        embedding = theorem1_embedding(tree).embedding
        runs = [
            simulate_on_host(
                PROGRAMS[program](embedding.guest),
                embedding,
                barrier=barrier,
                engine=engine,
            )
            for engine in ("classic", "vector")
        ]
        assert runs[0].total_cycles == runs[1].total_cycles
        assert runs[0].per_superstep_cycles == runs[1].per_superstep_cycles
        assert runs[0].max_link_traffic == runs[1].max_link_traffic
        assert runs[0].max_queue == runs[1].max_queue

    def test_compute_results_identical(self):
        tree = make_tree("random", 48, seed=5)
        embedding = theorem1_embedding(tree).embedding
        values = list(range(tree.n))
        assert simulated_reduction(
            embedding, values, engine="classic"
        ) == simulated_reduction(embedding, values, engine="vector")
        assert simulated_prefix(
            embedding, values, engine="classic"
        ) == simulated_prefix(embedding, values, engine="vector")


class TestDispatch:
    def _schedule(self, topology):
        a, b = list(topology.nodes())[:2]
        return [(0, Message(0, a, b))]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SynchronousNetwork(TOPOS["xtree"], engine="simd")
        net = SynchronousNetwork(TOPOS["xtree"])
        with pytest.raises(ValueError, match="unknown engine"):
            net.deliver_scheduled(self._schedule(TOPOS["xtree"]), engine="simd")
        assert set(ENGINES) == {"auto", "classic", "vector"}

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
        force the classic loop under engine='auto' (and raise under
        engine='vector')."""
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
        for net, kwargs in cases:
            stats = net.deliver_scheduled(list(schedule), **kwargs)
            assert stats.n_messages == 1
            with pytest.raises(ValueError, match="engine='vector' cannot run"):
                net.deliver_scheduled(list(schedule), engine="vector", **kwargs)

    def test_null_recorder_still_vectorises(self):
        topology = TOPOS["xtree"]
        stats = SynchronousNetwork(topology).deliver_scheduled(
            self._schedule(topology), recorder=NullRecorder(), engine="vector"
        )
        assert stats.delivery_cycle == {0: 1}

    def test_oversized_topology_falls_back(self, monkeypatch):
        import repro.simulate.vector_engine as vec_mod

        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", 4)
        topology = TOPOS["xtree"]
        schedule = self._schedule(topology)
        net = SynchronousNetwork(topology)
        with pytest.raises(ValueError, match="VECTOR_MAX_NODES"):
            net.deliver_scheduled(list(schedule), engine="vector")
        classic = SynchronousNetwork(topology).deliver_scheduled(
            list(schedule), engine="classic"
        )
        assert_stats_equal(net.deliver_scheduled(list(schedule)), classic)


class TestNextHopTables:
    def test_matrix_matches_classic_scan(self):
        """The oracle's dense tables reproduce the smallest-index policy of
        the classic per-call neighbour scan, entry for entry."""
        for topology in TOPOS.values():
            oracle = DistanceOracle(topology)
            matrix = oracle.next_hop_matrix()
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
                    assert matrix[i, j] == -1
                    continue
                expected = net.next_hop(nodes[i], nodes[j])
                assert nodes[matrix[i, j]] == expected, (topology.name, i, j)

    def test_matrix_memoised_and_frozen(self):
        oracle = DistanceOracle(TOPOS["hypercube"])
        matrix = oracle.next_hop_matrix()
        assert oracle.next_hop_matrix() is matrix
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
        from repro.simulate.vector_engine import vector_supported

        net = SynchronousNetwork(TOPOS["xtree"])
        assert vector_supported(net, None, None, None) is None

    def test_vector_error_lists_every_blocker(self):
        topology = TOPOS["xtree"]
        net = SynchronousNetwork(topology, router="adaptive")
        with pytest.raises(ValueError, match="adaptive.*recorder|recorder.*adaptive"):
            net.deliver_scheduled(
                self._msg(topology), recorder=TraceRecorder(), engine="vector"
            )

    def test_bound_is_inclusive(self, monkeypatch):
        # a topology of exactly VECTOR_MAX_NODES nodes still vectorises
        import repro.simulate.vector_engine as vec_mod

        topology = TOPOS["xtree"]
        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", topology.n_nodes)
        stats = SynchronousNetwork(topology).deliver_scheduled(
            self._msg(topology), engine="vector"
        )
        assert stats.n_messages == 1
        below = topology.n_nodes - 1
        monkeypatch.setattr(vec_mod, "VECTOR_MAX_NODES", below)
        with pytest.raises(ValueError, match=rf"VECTOR_MAX_NODES = {below}\)"):
            SynchronousNetwork(topology).deliver_scheduled(
                self._msg(topology), engine="vector"
            )
