"""Observability layer (repro.obs) and the engine edge-case fixes.

Covers the PR's acceptance identities:

* ``TraceRecorder`` per-cycle link utilisation sums to
  ``DeliveryStats.link_traffic`` and per-message event chains reconstruct
  ``delivery_cycle`` (property-tested over random schedules);
* fail/heal of non-edges raises; healing a live link is a no-op;
* sparse schedules (injection gaps >= 10^3) produce stats identical to the
  pre-fix engine's dense-equivalent loop, reproduced verbatim below.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.oracle import DistanceOracle
from repro.analysis.trace_report import (
    load_trace,
    metrics_report,
    per_cycle_csv,
    trace_summary_text,
)
from repro.cli import main
from repro.core.verification import verify_figure1
from repro.networks import Grid2D, Hypercube, XTree
from repro.obs import (
    TraceRecorder,
    counter_inc,
    counters,
    reset_counters,
    reset_spans,
    span,
    span_summary,
    spans,
    timed,
)
from repro.service import Scenario, run_scenario
from repro.simulate import (
    FaultSchedule,
    Message,
    SynchronousNetwork,
    neighbor_exchange_program,
    reduction_program,
    simulate_on_host,
)
from repro.trees import make_tree, theorem1_guest_size


def reference_deliver_scheduled(net, schedule):
    """The pre-fix ``deliver_scheduled`` loop, verbatim: idle-cycle
    spinning and a full pending-key rescan every cycle."""
    from repro.simulate.engine import DeliveryStats

    stats = DeliveryStats(cycles=0, n_messages=len(schedule))
    queues = defaultdict(deque)
    pending = defaultdict(list)
    seq = 0
    for inject, m in schedule:
        if inject < 0:
            raise ValueError("injection cycle must be non-negative")
        if m.src == m.dst:
            stats.delivery_cycle[m.msg_id] = inject
            continue
        pending[inject].append((seq, m))
        seq += 1
    cycle = 0
    while any(queues.values()) or any(c >= cycle for c in pending):
        for s, m in pending.pop(cycle, ()):
            queues[m.src].append((s, m))
        if not any(queues.values()):
            cycle += 1
            continue
        cycle += 1
        arrivals = defaultdict(list)
        for node in list(queues):
            q = queues[node]
            if not q:
                continue
            stats.max_queue = max(stats.max_queue, len(q))
            sent_per_link = defaultdict(int)
            kept = deque()
            while q:
                s, m = q.popleft()
                hop = net.next_hop(node, m.dst)
                if sent_per_link[hop] < net.link_capacity:
                    sent_per_link[hop] += 1
                    key = (node, hop)
                    stats.link_traffic[key] = stats.link_traffic.get(key, 0) + 1
                    arrivals[hop].append((s, m))
                else:
                    kept.append((s, m))
            queues[node] = kept
        for node, arrived in arrivals.items():
            for s, m in arrived:
                if m.dst == node:
                    stats.delivery_cycle[m.msg_id] = cycle
                else:
                    queues[node].append((s, m))
        for node in arrivals:
            if queues[node]:
                queues[node] = deque(sorted(queues[node]))
    stats.cycles = cycle
    return stats


def _random_schedule(data, topo, max_gap):
    nodes = list(topo.nodes())
    schedule = []
    for i in range(data.draw(st.integers(min_value=1, max_value=15))):
        src = data.draw(st.sampled_from(nodes))
        dst = data.draw(st.sampled_from([v for v in nodes if v != src]))
        inject = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1000, max_value=max_gap),
            )
        )
        schedule.append((inject, Message(i, src, dst)))
    return schedule


class TestTraceRecorderInvariants:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_trace_reconstructs_stats(self, data):
        """Acceptance identity: per-cycle link utilisation sums exactly to
        ``link_traffic``; event chains reproduce ``delivery_cycle``."""
        topo = data.draw(st.sampled_from([Grid2D(3, 3), Hypercube(3), XTree(3)]))
        net = SynchronousNetwork(topo, link_capacity=data.draw(st.integers(1, 2)))
        schedule = _random_schedule(data, topo, max_gap=1200)
        rec = TraceRecorder()
        stats = net.deliver_scheduled(schedule, recorder=rec)

        assert rec.link_utilisation_totals() == stats.link_traffic
        assert rec.delivery_cycles() == stats.delivery_cycle
        assert rec.tally["inject"] == rec.tally["delivered"] == len(schedule)
        if rec.cycles:
            assert rec.cycles[-1].in_flight == 0
            # samples are end-of-cycle, stats.max_queue is start-of-cycle:
            # the sampled peak can only be lower (messages moved out)
            assert max(s.max_queue for s in rec.cycles) <= stats.max_queue

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_event_chains_are_contiguous_routes(self, data):
        """inject -> hop* -> delivered, hops forming the src..dst path and
        the delivered cycle equalling the last hop's cycle."""
        topo = Hypercube(3)
        net = SynchronousNetwork(topo)
        schedule = _random_schedule(data, topo, max_gap=1100)
        rec = TraceRecorder()
        stats = net.deliver_scheduled(schedule, recorder=rec)
        for inject, m in schedule:
            chain = rec.message_events(m.msg_id)
            assert chain[0].kind == "inject" and chain[0].cycle == inject
            assert chain[-1].kind == "delivered"
            hops = [e for e in chain if e.kind == "hop"]
            assert hops[0].node == m.src and hops[-1].link_dst == m.dst
            for a, b in zip(hops, hops[1:]):
                assert a.link_dst == b.node
            assert chain[-1].cycle == hops[-1].cycle == stats.delivery_cycle[m.msg_id]


class TestSchedulingFix:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sparse_parity_with_prefix_engine(self, data):
        """Schedules with idle gaps >= 10^3 give stats identical to the
        pre-fix spin loop (which handled them by brute force)."""
        topo = data.draw(st.sampled_from([Grid2D(2, 3), Hypercube(3)]))
        net = SynchronousNetwork(topo)
        schedule = _random_schedule(data, topo, max_gap=1500)
        got = net.deliver_scheduled(schedule)
        expected = reference_deliver_scheduled(net, schedule)
        assert got.cycles == expected.cycles
        assert got.delivery_cycle == expected.delivery_cycle
        assert got.link_traffic == expected.link_traffic
        assert got.max_queue == expected.max_queue

    def test_gap_of_1000_is_fast_and_exact(self):
        net = SynchronousNetwork(Grid2D(1, 3))
        schedule = [
            (0, Message(0, (0, 0), (0, 2))),
            (10**3, Message(1, (0, 0), (0, 2))),
            (2 * 10**3, Message(2, (0, 2), (0, 0))),
        ]
        stats = net.deliver_scheduled(schedule)
        assert stats.delivery_cycle == {0: 2, 1: 1002, 2: 2002}
        assert stats.cycles == 2002

    def test_late_self_message_cycles_accounted(self):
        """A self-message scheduled at cycle k is delivered free *at* k,
        and the phase lasts at least k cycles."""
        net = SynchronousNetwork(Grid2D(1, 2))
        stats = net.deliver_scheduled([(7, Message(0, (0, 0), (0, 0)))])
        assert stats.delivery_cycle[0] == 7
        assert stats.cycles == 7

    def test_dense_self_message_still_free(self):
        stats = SynchronousNetwork(Grid2D(2, 2)).deliver([Message(0, (0, 0), (0, 0))])
        assert stats.cycles == 0
        assert stats.delivery_cycle[0] == 0


class TestFaultValidation:
    def test_restore_nonexistent_link_rejected(self):
        net = SynchronousNetwork(Grid2D(2, 2))
        with pytest.raises(ValueError, match="not a link"):
            net.restore_link((0, 0), (1, 1))

    def test_heal_nonexistent_link_rejected(self):
        net = SynchronousNetwork(Hypercube(3))
        with pytest.raises(ValueError, match="not a link"):
            net.heal_link(0, 7)

    def test_heal_live_link_is_noop(self):
        """Healing a link that was never failed must not drop warm tables."""
        net = SynchronousNetwork(Hypercube(3))
        for dst in range(4):
            net._dist_table(dst)
        before = {dst: table for dst, table in net._dist_to.items()}
        net.heal_link(0, 1)
        assert net._dist_to == before
        assert not net.failed

    def test_heal_failed_link_still_restores(self):
        net = SynchronousNetwork(Grid2D(1, 3))
        net.fail_link((0, 0), (0, 1))
        net.heal_link((0, 0), (0, 1))
        assert net.deliver([Message(0, (0, 0), (0, 2))]).cycles == 2

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_scripts_with_noop_heals_keep_parity(self, data):
        """Fault scripts that also heal live links (no-ops) stay equivalent
        to a cold rebuild of the same failure set."""
        q = Hypercube(3)
        net = SynchronousNetwork(q)
        edges = [tuple(e) for e in q.edges()]
        for _ in range(data.draw(st.integers(0, 8))):
            u, v = data.draw(st.sampled_from(edges))
            action = data.draw(st.sampled_from(["fail", "heal"]))
            if action == "fail" and frozenset((u, v)) not in net.failed:
                net.fail_link(u, v)
            else:
                net.heal_link(u, v)  # no-op when the link is live
        fresh = SynchronousNetwork(q, failed_links=[tuple(fs) for fs in net.failed])
        src = data.draw(st.integers(0, 7))
        dst = data.draw(st.integers(0, 7))
        if src == dst:
            return
        try:
            expected = fresh.deliver([Message(0, src, dst)])
        except Exception:
            with pytest.raises(Exception):
                net.deliver([Message(0, src, dst)])
            return
        got = net.deliver([Message(0, src, dst)])
        assert got.delivery_cycle == expected.delivery_cycle
        assert got.link_traffic == expected.link_traffic


class TestSpans:
    def test_span_records_name_and_nesting(self):
        reset_spans()
        with span("outer", size=3):
            with span("inner"):
                pass
        recs = spans()
        assert [r.name for r in recs] == ["inner", "outer"]
        assert recs[0].depth == 1 and recs[1].depth == 0
        assert recs[1].meta == {"size": 3}
        assert all(r.duration_s >= 0 for r in recs)

    def test_span_summary_aggregates(self):
        reset_spans()
        for _ in range(3):
            with span("thing"):
                pass
        agg = span_summary()["thing"]
        assert agg["count"] == 3
        assert agg["total_s"] >= agg["max_s"] >= 0

    def test_timed_decorator_preserves_function(self):
        reset_spans()

        @timed("decorated")
        def add(a, b):
            """docstring"""
            return a + b

        assert add(2, 3) == 5
        assert add.__doc__ == "docstring"
        assert "decorated" in span_summary()

    def test_verify_emits_span(self):
        reset_spans()
        verify_figure1(3)
        assert span_summary()["verify.figure1"]["count"] == 1

    def test_simulate_on_host_emits_span(self):
        from repro.core import theorem1_embedding

        reset_spans()
        tree = make_tree("random", theorem1_guest_size(2), seed=0)
        result = theorem1_embedding(tree)
        simulate_on_host(reduction_program(tree), result.embedding)
        assert "simulate.on_host" in span_summary()


class TestCounters:
    def test_counter_inc(self):
        reset_counters()
        counter_inc("x")
        counter_inc("x", 4)
        assert counters()["x"] == 5

    def test_oracle_row_cache_counters(self):
        oracle = DistanceOracle(Hypercube(3))
        assert oracle.cache_info() == {"hits": 0, "misses": 0, "rows": 0, "capacity": 256}
        oracle.row(0)
        oracle.row(0)
        info = oracle.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1 and info["rows"] == 1
        reset_counters()
        oracle.row(0)
        assert counters()["oracle.row_cache.hit"] == 1


class TestTraceExport:
    def _traced_run(self):
        tree = make_tree("random", theorem1_guest_size(2), seed=1)
        from repro.core import theorem1_embedding

        emb = theorem1_embedding(tree).embedding
        rec = TraceRecorder()
        simulate_on_host(reduction_program(tree), emb, recorder=rec)
        return rec

    def test_jsonl_round_trip(self, tmp_path):
        rec = self._traced_run()
        path = tmp_path / "trace.jsonl"
        rec.to_jsonl(path)
        loaded = load_trace(path)
        assert loaded["header"]["events"] == len(rec.events)
        assert len(loaded["cycles"]) == len(rec.cycles)
        assert len(loaded["events"]) == len(rec.events)
        # every line is valid standalone JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_phases_cover_supersteps(self):
        rec = self._traced_run()
        assert len(rec.phases) >= 1
        assert {s.phase for s in rec.cycles} <= set(range(len(rec.phases)))

    def test_summary_and_renderers(self):
        rec = self._traced_run()
        s = rec.summary()
        assert s["messages_injected"] == s["messages_delivered"]
        text = trace_summary_text(rec)
        assert "active cycles" in text and "phase" in text
        csv = per_cycle_csv(rec)
        assert csv.splitlines()[0].startswith("phase,cycle,")
        assert len(csv.splitlines()) == len(rec.cycles) + 1
        report = metrics_report(rec)
        assert "trace:" in report


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _scenario(name: str, **overrides) -> Scenario:
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    return replace(Scenario.from_obj(doc), **overrides)


class TestOneTraceLayout:
    """An in-memory recorder's ``to_jsonl`` and a streaming recorder of
    the same run write the same bytes."""

    @pytest.mark.parametrize(
        "name, batch",
        [(p.stem, False) for p in sorted(SCENARIOS.glob("*.json"))] + [("chaos", True)],
    )
    def test_scenario_traces_are_byte_identical(self, tmp_path, name, batch):
        scenario = _scenario(name, batch=batch)
        mem = TraceRecorder()
        run_scenario(scenario, recorder=mem)
        mem.to_jsonl(tmp_path / "a.jsonl")
        with TraceRecorder(path=tmp_path / "b.jsonl") as stream:
            run_scenario(scenario, recorder=stream)
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert json.loads(a.splitlines()[-1])["type"] == "header"

    def test_simulate_on_host_traces_are_byte_identical(self, tmp_path):
        from repro.core import theorem1_embedding

        tree = make_tree("random", theorem1_guest_size(4), seed=2)
        emb = theorem1_embedding(tree).embedding
        faults = FaultSchedule.chaos(
            emb.host, n_cycles=120, link_rate=0.1, corrupt_rate=0.2,
            flaky_rate=0.2, seed=5, byzantine_p=0.3,
        )
        program = neighbor_exchange_program(tree, rounds=2)
        mem = TraceRecorder()
        simulate_on_host(program, emb, recorder=mem, faults=faults, ttl=12)
        mem.to_jsonl(tmp_path / "a.jsonl")
        with TraceRecorder(path=tmp_path / "b.jsonl", flush_every=7) as stream:
            simulate_on_host(program, emb, recorder=stream, faults=faults, ttl=12)
        assert {"corrupt", "retransmit", "dropped"} <= set(mem.tally)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_tally_recounts_the_events(self):
        rec = TraceRecorder()
        run_scenario(_scenario("chaos", batch=True), recorder=rec)
        recount = Counter()
        for e in rec.events:
            recount[e.kind] += int(e.detail.partition("=")[2]) if e.kind == "migrate" else 1
        assert rec.tally == recount
        # one migrate event moved two messages
        assert sum(e.kind == "migrate" for e in rec.events) == 1
        summary = rec.summary()
        assert summary["events"] == len(rec.events)
        assert (summary["repairs"], summary["messages_migrated"],
                summary["batch_fallbacks"]) == (2, 2, 342)


class TestCLIObservability:
    def test_simulate_trace_and_metrics(self, tmp_path, capsys):
        path = tmp_path / "cli_trace.jsonl"
        rc = main(
            ["simulate", "--height", "2", "--program", "reduction",
             "--trace", str(path), "--metrics"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert path.exists()
        assert "wrote trace" in out
        assert "span" in out and "simulate.on_host" in out
        loaded = load_trace(path)
        assert loaded["cycles"] and loaded["events"]

    def test_simulate_without_flags_unchanged(self, capsys):
        rc = main(["simulate", "--height", "2", "--program", "reduction"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote trace" not in out
