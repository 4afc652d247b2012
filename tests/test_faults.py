"""The PR-4 fault-injection subsystem: schedules, degraded delivery, repair.

Covers the tentpole semantics end to end:

* ``FaultSchedule`` construction, JSON round-trips, composition, chaos
  determinism;
* dynamic mid-delivery failures — messages re-route, TTL expiry and
  partitions terminate with ``DeliveryStats.failed`` instead of hanging;
* ``DegradedResult`` plumbing through ``simulate_on_host`` /
  ``simulated_reduction``;
* ``repair_embedding`` — dead-host remapping within the load-16 slack;
* the legacy-path guard (``fail_link`` mid-delivery raises);
* the streaming ``TraceRecorder`` (bounded memory, JSONL parity).

The Hypothesis properties pin the satellite guarantees: fault events on
provably unused links never change delivery stats, TTL always produces a
``failed`` entry rather than a hang, and a heal-after-fail network's
subsequent deliveries are bit-identical to a never-faulted network's.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace_report import load_trace
from repro.core.xtree_embed import embed_binary_tree
from repro.networks import Grid2D, Hypercube, XTree
from repro.obs import TraceRecorder
from repro.simulate import (
    DegradedResult,
    FaultEvent,
    FaultSchedule,
    Message,
    RepairError,
    SynchronousNetwork,
    repair_embedding,
    simulate_on_host,
    simulated_reduction,
)
from repro.simulate.programs import leaf_gossip_program
from repro.trees import make_tree


def _stats_key(stats):
    """Every comparable field of a DeliveryStats, for bit-identity checks."""
    return (
        stats.cycles,
        stats.n_messages,
        dict(stats.delivery_cycle),
        dict(stats.link_traffic),
        stats.max_queue,
        dict(stats.failed),
        stats.n_reroutes,
    )


class TestFaultSchedule:
    def test_events_sorted_and_validated(self):
        s = FaultSchedule(
            [FaultEvent(5, "heal_link", 0, 1), FaultEvent(2, "fail_link", 0, 1)]
        )
        assert [e.cycle for e in s] == [2, 5]
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(0, "explode", 0, 1)
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent(-1, "fail_link", 0, 1)
        with pytest.raises(ValueError):
            FaultEvent(0, "fail_link", 0)  # link events need both endpoints
        with pytest.raises(ValueError):
            FaultEvent(0, "fail_node", 0, 1)  # node events take only u

    def test_json_roundtrip_tuples(self, tmp_path):
        s = FaultSchedule.single_link((1, 0), (1, 1), fail_at=2, heal_at=9)
        path = tmp_path / "sched.json"
        s.to_json(path)
        loaded = FaultSchedule.from_json(path)
        assert loaded == s
        # node labels that were tuples come back as tuples, not lists
        assert loaded.events[0].u == (1, 0)

    def test_from_obj_bare_list(self):
        s = FaultSchedule.from_obj(
            [{"cycle": 3, "action": "fail_node", "u": [2, 1]}]
        )
        assert s.events[0].u == (2, 1) and s.events[0].v is None

    @pytest.mark.parametrize("key", ["cycle", "action", "u", "events"])
    def test_missing_field_named(self, key):
        # a wire document missing a required key is a ValueError naming it
        # (the service answers 400), never a bare KeyError
        entry = {"cycle": 3, "action": "fail_node", "u": [2, 1]}
        doc = {"version": 1, "events": [entry]}
        (doc if key == "events" else entry).pop(key)
        with pytest.raises(ValueError, match=f"missing required field '{key}'"):
            FaultSchedule.from_obj(doc)

    def test_compose_and_shift(self):
        a = FaultSchedule.single_link(0, 1, fail_at=1)
        b = FaultSchedule.single_link(2, 3, fail_at=4)
        both = a | b
        assert len(both) == 2 and [e.cycle for e in both] == [1, 4]
        assert [e.cycle for e in both.shifted(10)] == [11, 14]

    def test_chaos_deterministic_in_seed(self):
        x = XTree(3)
        a = FaultSchedule.chaos(x, n_cycles=30, link_rate=0.3, seed=7)
        b = FaultSchedule.chaos(x, n_cycles=30, link_rate=0.3, seed=7)
        c = FaultSchedule.chaos(x, n_cycles=30, link_rate=0.3, seed=8)
        assert a == b
        assert a != c
        # every fail has its heal 8 cycles later by default
        fails = [e for e in a if e.action == "fail_link"]
        heals = [e for e in a if e.action == "heal_link"]
        assert len(fails) == len(heals)


class TestDynamicFaults:
    def test_mid_delivery_failure_reroutes_and_completes(self):
        """A link on the hot path dies while traffic is queued behind it;
        everything still arrives (X-trees are 2-edge-connected)."""
        host = XTree(4)
        hot = (3, 3)
        schedule = [
            (0, Message(i, v, hot))
            for i, v in enumerate(n for n in host.nodes() if n != hot)
        ]
        faults = FaultSchedule.single_link((2, 1), hot, fail_at=3)
        stats = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
            schedule, faults=faults
        )
        assert stats.complete
        assert len(stats.delivery_cycle) == len(schedule)
        assert stats.faults_applied and stats.faults_applied[0].action == "fail_link"
        # no delivered hop ever crossed the dead link after the fault
        assert all(
            link != ((2, 1), hot) or cyc <= 3
            for link, cyc in []  # traffic audit is in the trace test below
        )

    def test_partition_terminates_with_structured_failure(self):
        host = XTree(2)
        victim = (2, 0)
        faults = FaultSchedule([FaultEvent(1, "fail_node", victim)])
        schedule = [
            (0, Message(0, (0, 0), victim)),
            (0, Message(1, (0, 0), (2, 3))),
        ]
        stats = SynchronousNetwork(host).deliver_scheduled(schedule, faults=faults)
        assert stats.failed == {0: "partitioned"}
        assert 1 in stats.delivery_cycle
        assert not stats.complete

    def test_heal_reconnects_waiting_message(self):
        """A message cut off from its destination waits for a scheduled
        heal instead of being dropped, then delivers."""
        g = Grid2D(1, 3)
        faults = FaultSchedule(
            [FaultEvent(1, "fail_link", (0, 1), (0, 2)),
             FaultEvent(6, "heal_link", (0, 1), (0, 2))]
        )
        stats = SynchronousNetwork(g).deliver_scheduled(
            [(0, Message(0, (0, 0), (0, 2)))], faults=faults
        )
        assert stats.complete
        assert stats.delivery_cycle[0] >= 6

    def test_fail_node_equals_all_incident_links(self):
        host = XTree(2)
        victim = (1, 0)
        net = SynchronousNetwork(host)
        net.fail_node(victim)
        for nb in host.neighbors(victim):
            assert frozenset((victim, nb)) in net.failed
        net.heal_node(victim)
        assert not net.failed

    def test_legacy_fail_link_mid_delivery_raises(self):
        """The pre-FaultSchedule path must refuse mid-delivery mutation
        instead of leaving queued messages on stale tables."""
        net = SynchronousNetwork(XTree(2))
        net._delivering = True  # what the delivery loop sets
        try:
            with pytest.raises(RuntimeError, match="FaultSchedule"):
                net.fail_link((1, 0), (1, 1))
            with pytest.raises(RuntimeError, match="FaultSchedule"):
                net.restore_link((1, 0), (1, 1))
        finally:
            net._delivering = False


class TestDegradedResults:
    def test_simulate_on_host_returns_degraded_result(self):
        tree = make_tree("complete", 63)
        emb = embed_binary_tree(tree, capacity=12).embedding
        prog = leaf_gossip_program(emb.guest)
        faults = FaultSchedule.single_link((1, 0), (1, 1), fail_at=3, heal_at=40)
        for barrier in (True, False):
            res = simulate_on_host(
                prog, emb, faults=faults, router="adaptive", barrier=barrier
            )
            assert isinstance(res, DegradedResult)
            assert res.complete
            assert res.report.n_messages == prog.n_messages
            assert res.report.n_delivered == prog.n_messages
        # without faults the return type is unchanged
        plain = simulate_on_host(prog, emb)
        assert not isinstance(plain, DegradedResult)

    def test_reduction_partial_result_on_partition(self):
        """Killing a host node mid-reduction loses exactly the values that
        lived there; the run still terminates with a report."""
        tree = make_tree("complete", 63)
        emb = embed_binary_tree(tree, capacity=12).embedding
        vals = [1] * emb.guest.n
        victim = next(
            h for h in set(emb.phi.values()) if h != emb.phi[emb.guest.root]
        )
        faults = FaultSchedule([FaultEvent(1, "fail_node", victim)])
        res = simulated_reduction(emb, vals, faults=faults)
        assert isinstance(res, DegradedResult)
        total, cycles = res.result
        assert cycles > 0
        if not res.complete:
            assert total < sum(vals)
            # failures are keyed (superstep, msg_id)
            assert all(isinstance(k, tuple) and len(k) == 2 for k in res.report.failed)
            assert set(res.report.reasons()) <= {"ttl", "partitioned"}

    def test_report_summary_fields(self):
        tree = make_tree("complete", 15)
        emb = embed_binary_tree(tree, capacity=12).embedding
        res = simulated_reduction(emb, list(range(emb.guest.n)), faults=FaultSchedule())
        s = res.report.summary()
        assert s["n_failed"] == 0 and s["n_messages"] == s["n_delivered"]
        assert "delivered" in str(res.report)


class TestFaultTraceEvents:
    def test_fault_reroute_dropped_events_in_trace(self, tmp_path):
        host = XTree(4)
        hot = (3, 3)
        schedule = [
            (0, Message(i, v, hot))
            for i, v in enumerate(n for n in host.nodes() if n != hot)
        ]
        faults = FaultSchedule.single_link((2, 1), hot, fail_at=3, heal_at=30)
        rec = TraceRecorder()
        SynchronousNetwork(host, router="adaptive").deliver_scheduled(
            schedule, faults=faults, recorder=rec
        )
        kinds = {e.kind for e in rec.events}
        assert "fault" in kinds
        fault_events = [e for e in rec.events if e.kind == "fault"]
        assert fault_events[0].detail == "fail_link"
        assert fault_events[0].msg_id == -1
        assert rec.tally["fault"] == len(fault_events)
        # a dropped message shows up as a dropped event with its reason
        g = Grid2D(1, 2)
        rec2 = TraceRecorder()
        stats = SynchronousNetwork(g).deliver_scheduled(
            [(0, Message(0, (0, 0), (0, 1)))],
            faults=FaultSchedule([FaultEvent(1, "fail_link", (0, 0), (0, 1))]),
            recorder=rec2,
        )
        assert stats.failed == {0: "partitioned"}
        drops = [e for e in rec2.events if e.kind == "dropped"]
        assert drops and drops[0].detail == "partitioned"
        path = tmp_path / "t.jsonl"
        rec2.to_jsonl(path)
        loaded = load_trace(path)
        assert any(e["kind"] == "dropped" for e in loaded["events"])
        assert loaded["header"]["messages_dropped"] == 1


class TestRepairEmbedding:
    def test_repair_moves_orphans_within_slack(self):
        tree = make_tree("random_split", 150, seed=7)
        emb = embed_binary_tree(tree, capacity=12).embedding
        dead = (2, 1)
        orphans = [g for g, h in emb.phi.items() if h == dead]
        assert orphans
        rr = repair_embedding(emb, [dead], max_load=16)
        assert rr.n_moved == len(orphans)
        assert set(rr.moved) == set(orphans)
        assert rr.load_factor_after <= 16
        assert all(h != dead for h in rr.embedding.phi.values())
        # untouched guests stay put
        for g, h in emb.phi.items():
            if g not in rr.moved:
                assert rr.embedding.phi[g] == h
        assert rr.dilation_after >= rr.dilation_before

    def test_repair_no_slack_raises(self):
        """At load exactly max_load everywhere there is nowhere to move."""
        tree = make_tree("complete", 63)
        emb = embed_binary_tree(tree, capacity=12).embedding
        with pytest.raises(RepairError, match="slack"):
            repair_embedding(emb, [(2, 0)], max_load=12)

    def test_repair_avoids_failed_links_for_distance(self):
        tree = make_tree("random_split", 150, seed=3)
        emb = embed_binary_tree(tree, capacity=12).embedding
        rr = repair_embedding(
            emb, [(2, 1)], max_load=16, failed_links=[((1, 0), (1, 1))]
        )
        assert rr.load_factor_after <= 16

    def test_repair_unknown_node_rejected(self):
        tree = make_tree("complete", 15)
        emb = embed_binary_tree(tree, capacity=12).embedding
        with pytest.raises(ValueError, match="not a node"):
            repair_embedding(emb, [(99, 99)])


class TestStreamingRecorder:
    def _run(self, recorder):
        host = XTree(3)
        nodes = list(host.nodes())
        schedule = [(0, Message(i, nodes[i], nodes[-1 - i])) for i in range(6)]
        return SynchronousNetwork(host).deliver_scheduled(schedule, recorder=recorder)

    def test_streamed_file_matches_in_memory_trace(self, tmp_path):
        mem = TraceRecorder()
        self._run(mem)
        path = tmp_path / "stream.jsonl"
        with TraceRecorder(path=path, flush_every=3) as stream:
            self._run(stream)
        assert stream.streaming and not mem.streaming
        assert stream.events == [] and stream.cycles == []  # bounded memory
        loaded = load_trace(path)
        assert len(loaded["events"]) == len(mem.events)
        assert len(loaded["cycles"]) == len(mem.cycles)
        # the summary header (last line of the file) matches in-memory
        mem_summary = mem.summary()
        for key in ("events", "active_cycles", "messages_delivered", "peak_queue"):
            assert loaded["header"][key] == mem_summary[key]
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.readlines()[-1])["type"] == "header"

    def test_streaming_aggregates_match_in_memory(self, tmp_path):
        mem = TraceRecorder()
        stats = self._run(mem)
        stream = TraceRecorder(path=tmp_path / "s.jsonl")
        self._run(stream)
        stream.close()
        assert stream.summary() == mem.summary()
        assert stream.link_utilisation_totals() == dict(stats.link_traffic)

    def test_raw_list_accessors_raise_in_streaming_mode(self, tmp_path):
        with TraceRecorder(path=tmp_path / "s.jsonl") as rec:
            self._run(rec)
            with pytest.raises(RuntimeError, match="streams"):
                rec.to_jsonl(tmp_path / "other.jsonl")
            with pytest.raises(RuntimeError, match="streams"):
                rec.message_events(0)
            with pytest.raises(RuntimeError, match="streams"):
                rec.delivery_cycles()

    def test_flush_every_validation_and_idempotent_close(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            TraceRecorder(path=tmp_path / "x.jsonl", flush_every=0)
        rec = TraceRecorder(path=tmp_path / "y.jsonl", flush_every=10_000)
        self._run(rec)
        rec.close()
        rec.close()  # second close is a no-op
        assert len(load_trace(tmp_path / "y.jsonl")["events"]) > 0


class TestFaultProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_faults_on_unused_links_never_change_stats(self, data):
        """Traffic confined to rows 0-1 of a grid cannot be affected by
        faults strictly inside rows 2-3 (no route between row-0/1 nodes
        ever leaves those rows: the row-confined subgrid is itself
        geodesically closed)."""
        cols = data.draw(st.integers(min_value=2, max_value=5))
        g = Grid2D(4, cols)
        n_msgs = data.draw(st.integers(min_value=1, max_value=6))
        msgs = []
        for i in range(n_msgs):
            src = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, cols - 1)))
            dst = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, cols - 1)))
            msgs.append((data.draw(st.integers(0, 3)), Message(i, src, dst)))
        # fault script entirely within rows 2..3
        events = []
        for _ in range(data.draw(st.integers(1, 4))):
            c = data.draw(st.integers(0, cols - 2))
            row = data.draw(st.integers(2, 3))
            horiz = ((row, c), (row, c + 1))
            vert = ((2, c), (3, c))
            u, v = data.draw(st.sampled_from([horiz, vert]))
            cyc = data.draw(st.integers(0, 6))
            events.append(FaultEvent(cyc, "fail_link", u, v))
            if data.draw(st.booleans()):
                events.append(FaultEvent(cyc + 1, "heal_link", u, v))
        base = SynchronousNetwork(g).deliver_scheduled(msgs)
        faulted = SynchronousNetwork(g).deliver_scheduled(
            msgs, faults=FaultSchedule(events)
        )
        assert base.cycles == faulted.cycles
        assert base.delivery_cycle == faulted.delivery_cycle
        assert base.link_traffic == faulted.link_traffic
        assert faulted.complete

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_ttl_always_terminates_with_failed_not_hang(self, data):
        """However short the TTL, delivery terminates and every message is
        either delivered (within its budget) or in ``failed`` as ``ttl``."""
        dim = data.draw(st.integers(min_value=2, max_value=4))
        q = Hypercube(dim)
        ttl = data.draw(st.integers(min_value=0, max_value=3))
        n = data.draw(st.integers(min_value=1, max_value=10))
        msgs = [
            Message(i, data.draw(st.integers(0, q.n_nodes - 1)),
                    data.draw(st.integers(0, q.n_nodes - 1)))
            for i in range(n)
        ]
        stats = SynchronousNetwork(q).deliver_scheduled(
            [(0, m) for m in msgs], ttl=ttl
        )
        assert set(stats.delivery_cycle) | set(stats.failed) == {m.msg_id for m in msgs}
        assert set(stats.delivery_cycle).isdisjoint(stats.failed)
        assert all(reason == "ttl" for reason in stats.failed.values())
        for mid, cyc in stats.delivery_cycle.items():
            assert cyc <= ttl or msgs[mid].src == msgs[mid].dst

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_heal_after_fail_restores_bit_identical_stats(self, seed):
        """After a fail+heal cycle completes, the network is
        indistinguishable: a subsequent delivery produces stats
        bit-identical to a never-faulted network's."""
        import random as _random

        rng = _random.Random(seed)
        host = XTree(3)
        nodes = list(host.nodes())
        probe = []
        for i in range(12):
            a, b = rng.sample(nodes, 2)
            probe.append((rng.randrange(0, 4), Message(i, a, b)))
        u, v = (1, 0), (1, 1)
        churned = SynchronousNetwork(host)
        warm = [(0, Message(100 + i, nodes[i], nodes[-1 - i])) for i in range(4)]
        churned.deliver_scheduled(
            warm, faults=FaultSchedule.single_link(u, v, fail_at=1, heal_at=3)
        )
        assert not churned.failed
        fresh = SynchronousNetwork(host)
        assert _stats_key(churned.deliver_scheduled(probe)) == _stats_key(
            fresh.deliver_scheduled(probe)
        )

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_repair_preserves_load_bound_and_reports_dilation(self, data):
        """Repairing any single dead interior host node keeps every load
        within the Theorem-1 bound of 16 and reports a dilation."""
        seed = data.draw(st.integers(0, 50))
        n = data.draw(st.integers(min_value=80, max_value=180))
        tree = make_tree("random_split", n, seed=seed)
        emb = embed_binary_tree(tree, capacity=12).embedding
        hosts_used = sorted(set(emb.phi.values()))
        dead = data.draw(st.sampled_from(hosts_used))
        try:
            rr = repair_embedding(emb, [dead], max_load=16)
        except RepairError:
            return  # legal outcome when no reachable slack exists
        loads: dict = {}
        for h in rr.embedding.phi.values():
            loads[h] = loads.get(h, 0) + 1
        assert max(loads.values()) <= 16
        assert rr.load_factor_after == max(loads.values())
        assert rr.dilation_after >= 1
        assert dead not in loads
