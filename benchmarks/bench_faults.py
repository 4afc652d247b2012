"""Fault-injection benchmark: makespan degradation under dynamic faults (PR 4).

Three families of measurements, all on exact deterministic cycle counts
(seeded adaptive router, scripted :class:`~repro.simulate.faults.FaultSchedule`),
so ``benchmarks/anchors.json`` fixes every one of them:

* **single-link dynamic fault** — the acceptance gate: a link on the hot
  path fails *while messages are in flight* (cycle 3, never healed).  The
  X-tree and hypercube are 2-edge-connected, so every message stays
  deliverable; the :class:`~repro.simulate.routing.AdaptiveRouter` must
  deliver **all** of them with at most ``MAX_FAULT_SLOWDOWN`` (2.0×) the
  fault-free makespan.
* **hot-link degradation** — makespan vs. the number of the hot node's
  incident links failed simultaneously at cycle 3 (the node keeps enough
  live links to stay reachable).  This is the controlled degradation
  curve EXPERIMENTS.md E15 plots; completion is gated, the makespans are
  the record.
* **chaos sweep** — seeded random link failures (healed ``heal_after``
  cycles later) at increasing rates, exercising schedule composition and
  repeated fail/heal churn.  After the last scheduled event every link is
  live again, so completion is still required; makespan is recorded.
* **partition probe** — a node failure that cuts the only destination
  off.  The gate here is *termination with a structured report*: the run
  must end with the unreachable messages in ``DeliveryStats.failed``
  (reason ``partitioned``), never hang, and still deliver the rest.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

from functools import partial

from bench_router import hotspot_schedule

from repro.networks import Hypercube, XTree
from repro.simulate import FaultEvent, FaultSchedule, Message, SynchronousNetwork

MAX_FAULT_SLOWDOWN = 2.0

#: interior X-tree hot nodes per height (same spine picks as bench_router)
_XTREE_HOT = {4: (3, 3), 6: (4, 7)}


def bench_single_fault(name, host, schedule, u, v, params, *, fail_at=3, gated=True):
    """Adaptive makespan fault-free vs. with one link dying mid-delivery.

    ``u -> v`` is on the hot path, so traffic queued behind it must
    re-route; the host stays connected (2-edge-connected topologies), so
    the gate demands completion and bounded slowdown.
    """
    base = SynchronousNetwork(host, router="adaptive").deliver_scheduled(schedule)
    faults = FaultSchedule.single_link(u, v, fail_at=fail_at)
    hurt = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
        schedule, faults=faults
    )
    return {
        "name": name,
        "params": params,
        "fault_free_cycles": base.cycles,
        "faulted_cycles": hurt.cycles,
        "slowdown": hurt.cycles / base.cycles,
        "n_messages": hurt.n_messages,
        "n_delivered": len(hurt.delivery_cycle),
        "n_failed": len(hurt.failed),
        "n_reroutes": hurt.n_reroutes,
        "complete": hurt.complete,
        "gated": gated,
        "passed": hurt.complete and hurt.cycles / base.cycles <= MAX_FAULT_SLOWDOWN,
    }


#: escape-detour configuration that closes the E15 k=2 funnel spike
_ESCAPE_BUDGET = 8
_ESCAPE_MARGIN = 1.5


def bench_hot_degradation(host, hot, incident, params, *, fail_at=3):
    """Makespan vs. number of simultaneously failed hot-node links.

    ``incident`` lists directed links into ``hot`` to kill, worst first;
    the node keeps at least one live link, so every message stays
    deliverable.  With the plain minimal adaptive router the curve is
    sharply non-monotone: at k=2 the one surviving *near* entry link is
    the unique minimal route for almost the whole tree, so traffic
    funnels into it and serialises while the far entries sit idle —
    that is the E15 spike.  Each row therefore also records
    ``escape_cycles``: the same run with
    ``AdaptiveRouter(detour_budget=_ESCAPE_BUDGET, detour_margin=_ESCAPE_MARGIN)``,
    whose escape hops let queued traffic back out of the funnel; the gate
    demands the escape run never lose to the funnel run.
    """
    from repro.simulate.routing import AdaptiveRouter

    schedule = hotspot_schedule(host, hot)
    base = SynchronousNetwork(host, router="adaptive").deliver_scheduled(schedule)
    rows = []
    for k in range(1, len(incident) + 1):
        faults = FaultSchedule(
            [FaultEvent(fail_at, "fail_link", u, v) for u, v in incident[:k]]
        )
        hurt = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
            schedule, faults=faults
        )
        escape_router = AdaptiveRouter(
            detour_budget=_ESCAPE_BUDGET, detour_margin=_ESCAPE_MARGIN
        )
        escaped = SynchronousNetwork(host, router=escape_router).deliver_scheduled(
            schedule, faults=faults
        )
        rows.append(
            {
                "name": "hot_link_degradation",
                "params": {**params, "links_failed": k},
                "fault_free_cycles": base.cycles,
                "faulted_cycles": hurt.cycles,
                "slowdown": hurt.cycles / base.cycles,
                "escape_cycles": escaped.cycles,
                "escape_slowdown": escaped.cycles / base.cycles,
                "escape_budget": _ESCAPE_BUDGET,
                "escape_margin": _ESCAPE_MARGIN,
                "n_reroutes": hurt.n_reroutes,
                "complete": hurt.complete and escaped.complete,
                "gated": True,  # complete within 2x; escape never loses (asserted)
                "gate": "complete_and_escape<=funnel",
                "passed": (
                    hurt.complete and escaped.complete
                    and hurt.cycles / base.cycles <= MAX_FAULT_SLOWDOWN
                ),
            }
        )
        assert escaped.complete, f"escape run lost messages at k={k}"
        assert escaped.cycles <= hurt.cycles, (
            f"escape router lost to the funnel at k={k}: "
            f"{escaped.cycles} > {hurt.cycles}"
        )
    return rows


def bench_chaos_sweep(host, schedule, rates, params, *, seed=0, heal_after=8):
    """Makespan degradation vs. chaos link-failure rate (E15's curve).

    Every failure heals ``heal_after`` cycles later, so all messages stay
    deliverable eventually — completion is gated, the makespans are the
    recorded degradation curve.
    """
    base = SynchronousNetwork(host, router="adaptive").deliver_scheduled(schedule)
    rows = []
    for rate in rates:
        faults = FaultSchedule.chaos(
            host,
            n_cycles=2 * base.cycles,
            link_rate=rate,
            seed=seed,
            heal_after=heal_after,
        )
        hurt = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
            schedule, faults=faults
        )
        rows.append(
            {
                "name": "chaos_sweep",
                "params": {**params, "link_rate": rate, "seed": seed,
                           "heal_after": heal_after},
                "fault_free_cycles": base.cycles,
                "faulted_cycles": hurt.cycles,
                "slowdown": hurt.cycles / base.cycles,
                "fault_events_applied": len(hurt.faults_applied),
                "n_reroutes": hurt.n_reroutes,
                "complete": hurt.complete,
                "gated": True,  # gate = completion only; makespan recorded
                "gate": "complete",
                "passed": hurt.complete,
            }
        )
    return rows


def bench_partition_probe():
    """A partitioning node failure must terminate with a structured report.

    One message targets a node whose every incident link dies at cycle 1
    (never healed); a second message stays deliverable.  The engine must
    end the run (no hang), mark the first message ``partitioned`` in
    ``failed``, and still deliver the second.
    """
    host = XTree(2)
    victim = (2, 0)
    faults = FaultSchedule.from_obj(
        [{"cycle": 1, "action": "fail_node", "u": list(victim)}]
    )
    schedule = [
        (0, Message(0, (0, 0), victim)),
        (0, Message(1, (0, 0), (2, 3))),
    ]
    stats = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
        schedule, faults=faults
    )
    terminated_clean = (
        stats.failed.get(0) == "partitioned"
        and 1 in stats.delivery_cycle
        and len(stats.failed) == 1
    )
    return {
        "name": "partition_probe",
        "params": {"r": 2, "victim": list(victim)},
        "total_cycles": stats.cycles,
        "n_failed": len(stats.failed),
        "failure_reasons": sorted(set(stats.failed.values())),
        "structured_termination": terminated_clean,
        "gated": True,
        "gate": "structured_termination",
        "passed": terminated_clean,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    xt4, hc6 = XTree(4), Hypercube(6)
    cases = [
        partial(
            bench_single_fault, "xtree_hotspot_single_fault", xt4,
            hotspot_schedule(xt4, _XTREE_HOT[4]),
            (2, 1), _XTREE_HOT[4],
            {"r": 4, "hot": list(_XTREE_HOT[4]), "fail": [[2, 1], [3, 3]]},
        ),
        partial(
            bench_single_fault, "hypercube_hotspot_single_fault", hc6,
            hotspot_schedule(hc6, 0), 1, 0, {"dim": 6, "hot": 0, "fail": [1, 0]},
        ),
        partial(
            bench_chaos_sweep, xt4, hotspot_schedule(xt4, _XTREE_HOT[4]),
            rates=(0.2,) if smoke else (0.1, 0.2, 0.4),
            params={"r": 4, "hot": list(_XTREE_HOT[4])},
        ),
        bench_partition_probe,
    ]
    if not smoke:
        xt6, hc8 = XTree(6), Hypercube(8)
        hot6 = _XTREE_HOT[6]
        cases += [
            partial(
                bench_hot_degradation, xt6, hot6,
                [((3, 3), hot6), ((4, 6), hot6), ((4, 8), hot6)],
                {"r": 6, "hot": list(hot6)},
            ),
            partial(
                bench_single_fault, "xtree_hotspot_single_fault", xt6,
                hotspot_schedule(xt6, _XTREE_HOT[6]),
                (3, 3), _XTREE_HOT[6],
                {"r": 6, "hot": list(_XTREE_HOT[6]), "fail": [[3, 3], [4, 7]]},
            ),
            partial(
                bench_single_fault, "hypercube_hotspot_single_fault", hc8,
                hotspot_schedule(hc8, 0), 1, 0, {"dim": 8, "hot": 0, "fail": [1, 0]},
            ),
        ]
    return cases
