"""Instrumentation-overhead benchmark for the observability layer (PR 2).

Three measurements against ``legacy_deliver_scheduled`` — a verbatim copy
of the pre-PR engine loop (no recorder hooks, idle-cycle spinning):

* **null-recorder overhead** — the acceptance gate: the instrumented
  engine with the default :class:`~repro.obs.NullRecorder` must stay
  within ``MAX_DISABLED_OVERHEAD_PCT`` (5%) of the legacy loop on a dense
  pipelined workload;
* **trace-recorder overhead** — what full capture costs (informational);
* **sparse-schedule speedup** — the scheduling bugfix: with injection gaps
  of >= 10^3 idle cycles the legacy loop spins per cycle while the new
  engine jumps, so this one is a large speedup, recorded for the history.

Gated comparisons time the two contenders *interleaved* in alternating
order with the cyclic GC paused, and gate on the median of per-pair time
ratios — on shared CI runners, sequential best-of blocks charge machine
drift to whichever side ran second and flip the 5% gate randomly.

Every timed pair is also checked for *identical* ``DeliveryStats``, and
the trace run asserts the acceptance identity (per-cycle link utilisation
sums to ``link_traffic``).  Writes ``BENCH_PR2.json`` at the repo root and
(``--trace-out``) a sample JSONL trace for the CI artifact.  Run::

    python benchmarks/bench_obs.py [--smoke] [--out BENCH_PR2.json]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import json
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

from repro.core import theorem1_embedding
from repro.obs import NullRecorder, TraceRecorder
from repro.simulate import Message, SynchronousNetwork, neighbor_exchange_program
from repro.trees import make_tree, theorem1_guest_size

MAX_DISABLED_OVERHEAD_PCT = 5.0


def legacy_deliver_scheduled(net: SynchronousNetwork, schedule):
    """The pre-PR ``deliver_scheduled`` loop, reproduced verbatim.

    No recorder hooks, one loop iteration per idle cycle, and a rescan of
    every pending key each cycle — the baseline both the overhead gate and
    the sparse-schedule speedup compare against.  (Self-message ``cycles``
    accounting follows the *fixed* semantics so result equality can be
    asserted; the benchmark workloads contain no self-messages, where the
    two engines agreed all along.)
    """
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


def _stats_key(stats):
    return (stats.cycles, stats.delivery_cycle, stats.link_traffic, stats.max_queue)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_pair(fn_a, fn_b, repeats: int) -> tuple[float, float, float]:
    """Interleaved A/B timing; returns ``(best_a, best_b, median_ratio)``.

    Timing each side in its own sequential block charges any machine
    drift (CI frequency scaling, a neighbour stealing the core) wholly
    to whichever ran second — on shared runners that flips a 5%% gate in
    either direction.  Three defences: interleave the samples so drift
    lands on both sides, pause the cyclic GC so its pauses stay out of
    individual samples, and gate on the *median of per-pair ratios*
    ``b_i / a_i`` — adjacent samples share the machine's momentary speed,
    so each ratio is drift-free, and the median discards the bursts that
    survive.  The per-side minima are returned for reporting only.
    """
    best_a = best_b = float("inf")
    ratios = []
    fn_a(), fn_b()  # untimed warm-up: let the specializing interpreter settle
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(repeats):
            # alternate who goes first: running second in a pair is not
            # free (thermal ramp-down, sibling interference), and a fixed
            # order turns that into a one-sided bias the median keeps
            first, second = (fn_a, fn_b) if i % 2 == 0 else (fn_b, fn_a)
            t0 = time.perf_counter()
            first()
            dt_1 = time.perf_counter() - t0
            t0 = time.perf_counter()
            second()
            dt_2 = time.perf_counter() - t0
            dt_a, dt_b = (dt_1, dt_2) if i % 2 == 0 else (dt_2, dt_1)
            best_a = min(best_a, dt_a)
            best_b = min(best_b, dt_b)
            ratios.append(dt_b / dt_a)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    return best_a, best_b, statistics.median(ratios)


def make_workloads(r: int, rounds: int, gap: int, seed: int = 0):
    """A dense pipelined schedule (overhead gate) and a sparse one (bugfix).

    Dense: ``neighbor_exchange`` supersteps injected back-to-back through
    the Theorem 1 embedding — every cycle moves traffic.  Sparse: the same
    messages with ``gap`` idle cycles between supersteps.
    """
    tree = make_tree("random", theorem1_guest_size(r), seed=seed)
    emb = theorem1_embedding(tree).embedding
    prog = neighbor_exchange_program(tree, rounds=rounds)
    dense, sparse = [], []
    msg_id = 0
    for k, step in enumerate(prog.supersteps):
        for src, dst in step:
            m = Message(msg_id, emb.phi[src], emb.phi[dst])
            dense.append((k, m))
            sparse.append((k * gap, m))
            msg_id += 1
    return emb.host, dense, sparse


def bench_overhead(host, schedule, repeats: int) -> list[dict]:
    """Legacy vs instrumented engine (Null and Trace recorders).

    Pinned to ``deliver_classic``: this gate measures what the recorder
    hooks cost the reference loop, so the vectorised kernel (benchmarked
    separately in ``bench_vector.py``) must stay out of the comparison.
    """
    repeats = max(repeats, 35)  # the 5% gate wants many paired samples; runs are ~ms
    net = SynchronousNetwork(host)
    net.deliver_classic(schedule)  # warm the routing tables once
    expected = _stats_key(legacy_deliver_scheduled(net, schedule))
    null_rec = NullRecorder()
    assert _stats_key(net.deliver_classic(schedule, recorder=null_rec)) == expected
    trace_check = TraceRecorder()
    traced = net.deliver_classic(schedule, recorder=trace_check)
    assert _stats_key(traced) == expected
    assert trace_check.link_utilisation_totals() == traced.link_traffic

    legacy, null, null_ratio = _best_of_pair(
        lambda: legacy_deliver_scheduled(net, schedule),
        lambda: net.deliver_classic(schedule, recorder=null_rec),
        repeats,
    )
    trace = _best_of(
        lambda: net.deliver_classic(schedule, recorder=TraceRecorder()), repeats
    )
    return [
        {
            "name": "null_recorder_overhead",
            "params": {"messages": len(schedule), "host": host.name},
            "legacy_s": legacy,
            "new_s": null,
            "overhead_pct": (null_ratio - 1.0) * 100.0,
            "gated": True,
        },
        {
            "name": "trace_recorder_overhead",
            "params": {"messages": len(schedule), "host": host.name},
            "legacy_s": legacy,
            "new_s": trace,
            "overhead_pct": (trace - legacy) / legacy * 100.0,
            "gated": False,
        },
    ]


def bench_sparse(host, schedule, gap: int, repeats: int) -> dict:
    """The scheduling fix: idle-gap schedules, legacy spin vs cycle jump."""
    net = SynchronousNetwork(host)
    net.deliver_classic(schedule)
    assert _stats_key(net.deliver_classic(schedule)) == _stats_key(
        legacy_deliver_scheduled(net, schedule)
    )
    legacy, new, ratio = _best_of_pair(
        lambda: legacy_deliver_scheduled(net, schedule),
        lambda: net.deliver_classic(schedule),
        repeats,
    )
    return {
        "name": "sparse_schedule_speedup",
        "params": {"messages": len(schedule), "gap": gap, "host": host.name},
        "legacy_s": legacy,
        "new_s": new,
        "speedup": 1.0 / ratio,
        "gated": False,
    }


def write_sample_trace(host, schedule, path: Path) -> None:
    """One fully-traced run, exported as the CI's JSONL artifact."""
    rec = TraceRecorder()
    rec.begin_phase("bench_obs sample")
    SynchronousNetwork(host).deliver_scheduled(schedule, recorder=rec)
    rec.to_jsonl(path)


def run(smoke: bool = False, repeats: int = 5) -> dict:
    r = 3 if smoke else 4
    rounds = 4 if smoke else 8
    gap = 1000
    host, dense, sparse = make_workloads(r, rounds, gap)
    results = bench_overhead(host, dense, repeats)
    results.append(bench_sparse(host, sparse, gap, repeats))
    gated = [res for res in results if res["gated"]]
    return {
        "bench": "obs (PR 2)",
        "smoke": smoke,
        "python": sys.version.split()[0],
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
        "results": results,
        "all_pass": all(res["overhead_pct"] <= MAX_DISABLED_OVERHEAD_PCT for res in gated),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small instances for CI")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR2.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="also write a sample JSONL trace of the workload",
    )
    args = parser.parse_args(argv)
    record = run(smoke=args.smoke, repeats=args.repeats)
    for res in record["results"]:
        extra = (
            f"overhead {res['overhead_pct']:+6.2f}%"
            if "overhead_pct" in res
            else f"speedup {res['speedup']:8.1f}x"
        )
        print(
            f"{res['name']:<26} {res['params']}  "
            f"legacy {res['legacy_s'] * 1e3:8.2f} ms   new {res['new_s'] * 1e3:8.2f} ms   {extra}"
        )
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.trace_out is not None:
        host, dense, _ = make_workloads(2 if record["smoke"] else 3, 2, 1000)
        write_sample_trace(host, dense, args.trace_out)
        print(f"wrote {args.trace_out}")
    if not record["all_pass"]:
        print(
            f"FAIL: disabled-recorder overhead exceeds {MAX_DISABLED_OVERHEAD_PCT}% "
            "(the observability layer must be free when off)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
