"""Vector-engine benchmark: speedup gate, 10^6-message run, parity corpus (PR 6).

Three measurements for the struct-of-arrays kernel
(:mod:`repro.simulate.vector_engine`):

* **speedup gate** — the reference loop vs the vector kernel on the dense
  pipelined ``neighbor_exchange`` workload ``bench_obs`` builds (one size
  up in full mode); timed interleaved with the GC paused and gated on the
  median of per-pair ratios (see ``bench_obs._best_of_pair``).  Full runs
  must clear ``MIN_SPEEDUP`` (10x); smoke runs gate at the conservative
  ``MIN_SPEEDUP_SMOKE`` because CI runners are slow and the smoke
  workload is small.
* **million-message feasibility** — a 10^6-message schedule (permutation
  waves on a 511-node X-tree, spaced past the single-wave makespan so the
  network stays in steady state) must *complete* on the vector engine;
  wall time and throughput are recorded, the deterministic makespan is
  anchored.  The smoke size runs the same wave construction at 10^5
  messages.
* **parity corpus** — 40+ schedules spanning the four core topologies
  (X-tree, hypercube, complete binary tree, grid), the adversarial
  hot-spot/permutation programs, and barrier + pipelined
  ``simulate_on_host`` supersteps: classic and vector stats must be
  *bit-identical* field by field, and each schedule delivered as an
  ``ArraySchedule`` must equal its list delivery on both engines, dicts
  in the same order; a SHA-256 over the canonical classic list stats is
  recorded so the corpus itself is tamper-evident, and the summed corpus
  makespan is anchored.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from functools import partial
from unittest import mock

import numpy as np
from bench_obs import _best_of_pair, _stats_key, make_workloads

import repro.simulate.engine as engine_mod
from repro.core import theorem1_embedding
from repro.networks import XTree, registry_instances
from repro.simulate import (
    PROGRAMS,
    ArraySchedule,
    Message,
    SynchronousNetwork,
    simulate_on_host,
)
from repro.simulate.vector_engine import vector_deliver_scheduled, vector_supported
from repro.trees import make_tree, theorem1_guest_size

MIN_SPEEDUP = 10.0
MIN_SPEEDUP_SMOKE = 2.0
#: the four core topologies the parity corpus must span
CORPUS_TOPOLOGIES = ("xtree", "hypercube", "complete-binary-tree", "grid2d")


# ----------------------------------------------------------------------
# Speedup gate
# ----------------------------------------------------------------------
def bench_speedup(r: int, rounds: int, min_speedup: float) -> dict:
    """Reference loop vs kernel on the bench_obs dense pipelined workload."""
    host, dense = make_workloads(r, rounds)
    classic = SynchronousNetwork(host)
    vector = SynchronousNetwork(host)
    assert vector_supported(vector, None, None, None) is None
    classic.deliver_classic(dense)  # warm routing tables / dense matrices
    vector_deliver_scheduled(vector, dense)
    assert _stats_key(classic.deliver_classic(dense)) == _stats_key(
        vector_deliver_scheduled(vector, dense)
    ), "speedup workload is not bit-identical between engines"
    classic_s, vector_s, ratio = _best_of_pair(
        lambda: classic.deliver_classic(dense),
        lambda: vector_deliver_scheduled(vector, dense),
        9,
    )
    return {
        "name": "vector_speedup",
        "params": {"messages": len(dense), "host": host.name, "r": r},
        "min_speedup": min_speedup,
        "gated": True,
        "passed": 1.0 / ratio >= min_speedup,
        "timing": {"classic_s": classic_s, "vector_s": vector_s, "speedup": 1.0 / ratio},
    }


# ----------------------------------------------------------------------
# Million-message feasibility
# ----------------------------------------------------------------------
def million_schedule(n_messages: int, height: int = 8, seed: int = 0):
    """Permutation waves on an X-tree, spaced for steady-state occupancy.

    Each wave is a full random permutation of the host nodes; waves are
    spaced 60 cycles apart — past the measured single-wave makespan — so
    in-flight population stays bounded and the schedule is *feasible*
    rather than a congestion-collapse stress test.
    """
    topology = XTree(height)
    nodes = list(topology.nodes())
    rng = random.Random(seed)
    schedule = []
    targets = nodes[:]
    mid = 0
    inject = 0
    while mid < n_messages:
        rng.shuffle(targets)
        for src, dst in zip(nodes, targets):
            if mid >= n_messages:
                break
            schedule.append((inject, Message(mid, src, dst)))
            mid += 1
        inject += 60
    return topology, schedule


def bench_million(n_messages: int) -> dict:
    topology, schedule = million_schedule(n_messages)
    net = SynchronousNetwork(topology)
    assert vector_supported(net, None, None, None) is None
    t0 = time.perf_counter()
    stats = vector_deliver_scheduled(net, schedule)
    wall = time.perf_counter() - t0
    completed = len(stats.delivery_cycle) == n_messages
    return {
        "name": "million_message_run",
        "params": {"messages": n_messages, "host": topology.name},
        "makespan_cycles": stats.cycles,
        "completed": completed,
        "gated": True,
        "passed": completed,
        "timing": {"wall_s": wall, "messages_per_s": n_messages / wall},
    }


# ----------------------------------------------------------------------
# Parity corpus
# ----------------------------------------------------------------------
def _canonical_stats(stats) -> dict:
    """JSON-safe, order-independent form of a DeliveryStats for hashing."""
    return {
        "cycles": stats.cycles,
        "n_messages": stats.n_messages,
        "delivery_cycle": sorted(stats.delivery_cycle.items()),
        "link_traffic": sorted(
            (repr(u), repr(v), c) for (u, v), c in stats.link_traffic.items()
        ),
        "max_queue": stats.max_queue,
    }


def corpus_schedules():
    """Yield ``(label, topology, schedule, link_capacity)`` corpus entries."""
    topologies = registry_instances(3)
    for name in CORPUS_TOPOLOGIES:
        topology = topologies[name]
        nodes = list(topology.nodes())
        # seed by position, not hash(name): str hashes vary per process
        rng = random.Random(1 + CORPUS_TOPOLOGIES.index(name))
        # random mixed schedules: dense bursts, sparse gaps, self-sends
        for trial in range(7):
            schedule = [
                (
                    rng.choice([0, 0, 1, 2, 3, 40, 400]),
                    Message(
                        mid, rng.choice(nodes), rng.choice(nodes)
                    ),
                )
                for mid in range(rng.randrange(20, 160))
            ]
            yield f"{name}/random{trial}", topology, schedule, rng.choice([1, 1, 2, 3])
        # hot-spot: every node bombards one target at once
        hot = nodes[len(nodes) // 2]
        schedule = [
            (0, Message(i, src, hot))
            for i, src in enumerate(n for n in nodes if n != hot)
        ]
        yield f"{name}/hot_spot", topology, schedule, 1
        # permutation waves, staggered
        targets = nodes[:]
        schedule = []
        mid = 0
        for wave in range(3):
            rng.shuffle(targets)
            for src, dst in zip(nodes, targets):
                schedule.append((3 * wave, Message(mid, src, dst)))
                mid += 1
        yield f"{name}/permutation", topology, schedule, 2


def _as_arrays(topology, schedule) -> ArraySchedule:
    """The array form of an ``(inject, Message)`` schedule."""
    index = topology.index
    rows = [(inject, m.msg_id, index(m.src), index(m.dst)) for inject, m in schedule]
    return ArraySchedule(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def _same_delivery(a, b) -> bool:
    """Every field equal, and the per-message and per-link dicts filled in
    the same order."""
    return (
        a == b
        and list(a.delivery_cycle.items()) == list(b.delivery_cycle.items())
        and list(a.link_traffic.items()) == list(b.link_traffic.items())
    )


def bench_parity_corpus() -> dict:
    """Every corpus schedule bit-identical between engines and between its
    list and array forms, plus supersteps."""
    digest = hashlib.sha256()
    n_schedules = 0
    corpus_cycles = 0
    for label, topology, schedule, cap in corpus_schedules():
        classic = SynchronousNetwork(topology, link_capacity=cap).deliver_classic(
            list(schedule)
        )
        vector = vector_deliver_scheduled(
            SynchronousNetwork(topology, link_capacity=cap), list(schedule)
        )
        if _stats_key(classic) != _stats_key(vector):
            raise AssertionError(f"parity violation on corpus schedule {label}")
        arrays = _as_arrays(topology, schedule)
        net = SynchronousNetwork(topology, link_capacity=cap)
        if not (
            _same_delivery(net.deliver_classic(arrays), classic)
            and _same_delivery(vector_deliver_scheduled(net, arrays), vector)
        ):
            raise AssertionError(f"array form differs from the list on {label}")
        n_schedules += 1
        corpus_cycles += classic.cycles
        digest.update(label.encode())
        digest.update(
            json.dumps(_canonical_stats(classic), sort_keys=True).encode()
        )
    # simulate_on_host supersteps: adversarial programs through a real
    # Theorem 1 embedding, barrier and pipelined
    tree = make_tree("random", theorem1_guest_size(3), seed=0)
    embedding = theorem1_embedding(tree).embedding
    for program_name in ("hot_spot", "permutation"):
        program = PROGRAMS[program_name](tree)
        for barrier in (True, False):
            # the dispatch predicate patched to report a blocker sends every
            # superstep of the first run to the reference loop
            with mock.patch.object(engine_mod, "vector_supported", lambda *a: "forced"):
                classic = simulate_on_host(program, embedding, barrier=barrier)
            runs = [classic, simulate_on_host(program, embedding, barrier=barrier)]
            if (
                runs[0].per_superstep_cycles != runs[1].per_superstep_cycles
                or runs[0].max_link_traffic != runs[1].max_link_traffic
                or runs[0].max_queue != runs[1].max_queue
            ):
                raise AssertionError(
                    f"parity violation on supersteps {program_name} barrier={barrier}"
                )
            n_schedules += 1
            corpus_cycles += runs[0].total_cycles
            digest.update(
                f"{program_name}/{barrier}/{runs[0].per_superstep_cycles}".encode()
            )
    return {
        "name": "parity_corpus",
        "params": {"corpus": "v1"},
        "n_schedules": n_schedules,
        "topologies": list(CORPUS_TOPOLOGIES),
        "corpus_cycles": corpus_cycles,
        "sha256": digest.hexdigest(),
        "identical": True,
        "gated": True,
        "passed": n_schedules >= 40,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    return [
        partial(
            bench_speedup,
            r=4 if smoke else 5,
            rounds=4 if smoke else 8,
            min_speedup=MIN_SPEEDUP_SMOKE if smoke else MIN_SPEEDUP,
        ),
        partial(bench_million, 100_000 if smoke else 1_000_000),
        bench_parity_corpus,
    ]
