"""Adaptive-routing benchmark: hot-spot makespan and unchanged default.

Three measurements:

* **hot-spot makespan** — the acceptance gate: on adversarial workloads
  (every node bombarding one hot destination; bit-reversal permutations)
  the congestion-aware :class:`~repro.simulate.routing.AdaptiveRouter`
  must cut the deterministic router's makespan by at least
  ``MIN_HOTSPOT_IMPROVEMENT_PCT`` (15%) on every gated workload.  Cycle
  counts are exact and machine-independent, so ``benchmarks/anchors.json``
  fixes them.
* **deterministic default unchanged** — the refactor gate: the default
  router and the explicitly named deterministic one must produce
  ``DeliveryStats`` *bit-identical* to the reference loop
  (``SynchronousNetwork.deliver_classic``) on a randomised corpus.
* **detour under faults** — ``detour_faulted_hotspot``: with two of the
  hot node's incident links failed mid-delivery (a
  :class:`~repro.simulate.faults.FaultSchedule`), ``detour_budget=2``
  must beat the minimal adaptive router by at least
  ``MIN_DETOUR_IMPROVEMENT_PCT`` (8%) — bounded sideways detours pay off
  exactly when faults break the minimal routes' symmetry.

Workloads (the smoke sizes are also part of the full sizes):

* ``hypercube_hotspot`` — all nodes send to node 0 of a hypercube at
  once.  log(n) equal-length routes exist per source; the deterministic
  smallest-index tie-break piles them onto one spanning tree while the
  adaptive router spreads over all of node 0's ``d`` terminal links.
* ``hypercube_bitrev`` — the classic bit-reversal permutation, the
  standard adversary for oblivious dimension-ordered routing.
* ``xtree_hotspot`` — every X-tree node sends to one *interior* node,
  where sibling links offer equal-length alternatives.  (A leaf hot spot
  is terminal-bound — see docs/ALGORITHM.md — so the gate targets the
  interesting case.)
* ``embedded_hotspot`` — :func:`~repro.simulate.programs.hot_spot_program`
  run through the Theorem 1 embedding, pipelined: the end-to-end path the
  CLI exercises (guest hot node -> 16-node image block -> host routes).

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

import random
from functools import partial

from bench_obs import _stats_key

from repro.core import theorem1_embedding
from repro.networks import Hypercube, XTree
from repro.simulate import (
    AdaptiveRouter,
    FaultEvent,
    FaultSchedule,
    Message,
    SynchronousNetwork,
    hot_spot_program,
)
from repro.simulate.mapping import simulate_on_host
from repro.trees import make_tree, theorem1_guest_size

MIN_HOTSPOT_IMPROVEMENT_PCT = 15.0
MIN_DETOUR_IMPROVEMENT_PCT = 8.0

#: interior X-tree hot nodes (level, position) per height — picked off the
#: spine so sibling links give the router equal-length alternatives
_XTREE_HOT = {4: (3, 3), 6: (4, 7)}


def hotspot_schedule(host, hot):
    """Every node except ``hot`` sends one message to ``hot`` at cycle 0."""
    return [
        (0, Message(i, v, hot))
        for i, v in enumerate(n for n in host.nodes() if n != hot)
    ]


def bitrev_schedule(host: Hypercube, dim: int):
    """The bit-reversal permutation on a ``dim``-dimensional hypercube."""
    def rev(v: int) -> int:
        return int(format(v, f"0{dim}b")[::-1], 2)

    return [
        (0, Message(i, v, rev(v)))
        for i, v in enumerate(range(host.n_nodes))
        if v != rev(v)
    ]


def bench_hotspot(name: str, host, schedule, params: dict, *, gated: bool) -> dict:
    """Deterministic vs adaptive makespan on one raw-network workload."""
    det = SynchronousNetwork(host, router="deterministic").deliver_scheduled(schedule)
    ada = SynchronousNetwork(host, router="adaptive").deliver_scheduled(schedule)
    assert set(det.delivery_cycle) == set(ada.delivery_cycle), "adaptive lost messages"
    improvement = (det.cycles - ada.cycles) / det.cycles * 100.0
    return {
        "name": name,
        "params": params,
        "deterministic_cycles": det.cycles,
        "adaptive_cycles": ada.cycles,
        "improvement_pct": improvement,
        "gated": gated,
        "passed": improvement >= MIN_HOTSPOT_IMPROVEMENT_PCT,
    }


def bench_embedded_hotspot(r: int, seed: int, *, gated: bool) -> dict:
    """The end-to-end path: hot_spot_program through the Theorem 1 embedding.

    Pipelined injection (one superstep per cycle), the same shape the
    engine's ``deliver_scheduled`` models for non-barrier execution.
    """
    tree = make_tree("random", theorem1_guest_size(r), seed=0)
    emb = theorem1_embedding(tree).embedding
    prog = hot_spot_program(tree, rounds=2, seed=seed)
    det = simulate_on_host(prog, emb, router="deterministic").total_cycles
    ada = simulate_on_host(prog, emb, router="adaptive").total_cycles
    improvement = (det - ada) / det * 100.0
    return {
        "name": "embedded_hotspot",
        "params": {"r": r, "rounds": 2, "seed": seed, "n": tree.n},
        "deterministic_cycles": det,
        "adaptive_cycles": ada,
        "improvement_pct": improvement,
        "gated": gated,
        "passed": improvement >= MIN_HOTSPOT_IMPROVEMENT_PCT,
    }


def bench_detour_faulted(r: int, *, gated: bool) -> dict:
    """Fault-heavy workload where a bounded detour budget earns its keep.

    Two of the hot node's incident links (parent + left cross) die at
    cycle 3 of an X-tree hot-spot run, squeezing all remaining traffic
    through the survivors.  With ``detour_budget=0`` the minimal adaptive
    router can only queue behind them; ``detour_budget=2`` lets messages
    step *sideways* along the level to enter the hot node through a less
    loaded survivor, cutting the makespan (the gate demands at least
    ``MIN_DETOUR_IMPROVEMENT_PCT``).  Exercises the ROADMAP item: sideways
    detours are pointless on healthy shortest paths, but pay off exactly
    when faults break the minimal routes' symmetry.
    """
    host = XTree(r)
    hot = (4, 7) if r >= 5 else (3, 3)
    schedule = hotspot_schedule(host, hot)
    parent = (hot[0] - 1, hot[1] // 2)
    cross_left = (hot[0], hot[1] - 1)
    faults = FaultSchedule(
        [FaultEvent(3, "fail_link", parent, hot),
         FaultEvent(3, "fail_link", cross_left, hot)]
    )
    cycles = {}
    for budget in (0, 2):
        net = SynchronousNetwork(host, router=AdaptiveRouter(detour_budget=budget))
        stats = net.deliver_scheduled(schedule, faults=faults)
        assert stats.complete, f"detour workload lost messages (budget={budget})"
        cycles[budget] = stats.cycles
    improvement = (cycles[0] - cycles[2]) / cycles[0] * 100.0
    return {
        "name": "detour_faulted_hotspot",
        "params": {"r": r, "hot": list(hot), "detour_budget": 2,
                   "fail": [[list(parent), list(hot)], [list(cross_left), list(hot)]]},
        "no_detour_cycles": cycles[0],
        "detour_cycles": cycles[2],
        "improvement_pct": improvement,
        "gate_pct": MIN_DETOUR_IMPROVEMENT_PCT,
        "gated": gated,
        "passed": improvement >= MIN_DETOUR_IMPROVEMENT_PCT,
    }


def check_deterministic_identity(n_schedules: int, seed: int = 0) -> dict:
    """Default router == explicit deterministic == the reference loop.

    Random multi-hop schedules over an X-tree and a hypercube; every
    ``DeliveryStats`` field must match bit-for-bit (the refactor gate).
    """
    rng = random.Random(seed)
    checked = 0
    identical = True
    for host in (XTree(4), Hypercube(6)):
        nodes = list(host.nodes())
        for _ in range(n_schedules):
            schedule = []
            for i in range(rng.randrange(20, 120)):
                src, dst = rng.sample(nodes, 2)
                schedule.append((rng.randrange(0, 8), Message(i, src, dst)))
            default = SynchronousNetwork(host).deliver_scheduled(schedule)
            named = SynchronousNetwork(host, router="deterministic").deliver_scheduled(
                schedule
            )
            reference = SynchronousNetwork(host).deliver_classic(schedule)
            identical &= _stats_key(default) == _stats_key(named) == _stats_key(reference)
            checked += 1
    return {
        "name": "deterministic_identity",
        "params": {"schedules": checked},
        "identical": identical,
        "gated": True,
        "passed": identical,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    cases = [
        partial(
            bench_hotspot, "hypercube_hotspot", Hypercube(6),
            hotspot_schedule(Hypercube(6), 0), {"dim": 6, "hot": 0}, gated=True,
        ),
        partial(
            bench_hotspot, "hypercube_bitrev", Hypercube(6),
            bitrev_schedule(Hypercube(6), 6), {"dim": 6}, gated=True,
        ),
        partial(
            bench_hotspot, "xtree_hotspot", XTree(4),
            hotspot_schedule(XTree(4), _XTREE_HOT[4]),
            {"r": 4, "hot": list(_XTREE_HOT[4])}, gated=False,  # too small to matter
        ),
        partial(bench_embedded_hotspot, 3, seed=2, gated=True),
        partial(bench_detour_faulted, 5, gated=True),
    ]
    if not smoke:
        cases += [
            partial(
                bench_hotspot, "hypercube_hotspot", Hypercube(8),
                hotspot_schedule(Hypercube(8), 0), {"dim": 8, "hot": 0}, gated=True,
            ),
            partial(
                bench_hotspot, "hypercube_bitrev", Hypercube(8),
                bitrev_schedule(Hypercube(8), 8), {"dim": 8}, gated=True,
            ),
            partial(
                bench_hotspot, "xtree_hotspot", XTree(6),
                hotspot_schedule(XTree(6), _XTREE_HOT[6]),
                {"r": 6, "hot": list(_XTREE_HOT[6])}, gated=True,
            ),
            partial(bench_embedded_hotspot, 5, seed=2, gated=True),
            partial(bench_detour_faulted, 6, gated=True),
        ]
    return cases + [partial(check_deterministic_identity, n_schedules=5 if smoke else 20)]
