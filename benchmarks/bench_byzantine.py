"""Byzantine-link integrity benchmark: detection, overhead, purity (PR 9).

Four gated measurements of the engine's end-to-end integrity protocol
(per-message checksum, NACK + source retransmit with exponential
backoff, EWMA-driven link quarantine) plus two anchored records:

* **zero silent corruption** — a seeded corpus of byzantine deliveries
  (corrupt and flaky links, rates 5%..100%, many coin seeds, two hosts).
  Every run must terminate with each message either delivered with a
  *verified* payload or failed with a structured reason; the engine's
  ``n_silent_corruptions`` ground-truth counter (payload word changed
  but the CRC still matched) must be zero across the whole corpus.
* **byzantine-free bit-identity** — the PR 7 reference scenarios re-run
  on this build must reproduce their makespans exactly: the protocol
  must be invisible when no byzantine event exists (the non-byzantine
  path is untouched).  ``benchmarks/anchors.json`` holds them, the same
  values as bench_service's ``scenario_reference_makespans``.
* **1% corruption overhead** — every link of the host corrupts each
  crossing with probability 0.01; the hotspot workload must still
  complete every message at most ``MAX_BYZANTINE_SLOWDOWN`` (2.0x) the
  fault-free makespan.
* **storm termination** — ``scenarios/byzantine_storm.json``: every
  route into the destination corrupts at rate 1.0 forever.  The run must
  terminate (no hang), deliver nothing wrong, and mark every lost
  message with the structured ``"integrity"`` reason.
* **recoverable scenario anchor** — ``scenarios/byzantine.json``
  completes (exit 0) with corruption detected and retransmitted; its
  makespan is anchored.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from bench_router import hotspot_schedule
from bench_service import FAULT_DOC, PLAIN_DOC

from repro.networks import XTree
from repro.service import Scenario, run_scenario
from repro.simulate import (
    FaultEvent,
    FaultSchedule,
    Message,
    SynchronousNetwork,
)

REPO = Path(__file__).resolve().parent.parent

MAX_BYZANTINE_SLOWDOWN = 2.0

#: interior X-tree hot node (same spine pick as bench_router)
_HOT4 = (3, 3)


def _victim_schedule(host, victim, n_msgs):
    nodes = sorted(host.nodes(), key=host.index)
    srcs = [n for n in nodes if n != victim]
    return [(0, Message(i, srcs[i % len(srcs)], victim)) for i in range(n_msgs)]


def bench_silent_corruption_corpus(smoke: bool) -> dict:
    """Seeded sweep: no byzantine run may ever deliver wrong data silently."""
    seeds = range(2 if smoke else 12)
    rates = (0.2, 1.0) if smoke else (0.05, 0.2, 0.5, 1.0)
    hosts = (XTree(3),) if smoke else (XTree(3), XTree(4))
    runs = deliveries = corrupted = retransmits = silent = 0
    reasons: set[str] = set()
    unaccounted = 0
    for host in hosts:
        victim = sorted(host.nodes(), key=host.index)[-1]
        links = [(u, victim) for u in host.neighbors(victim)]
        schedule = _victim_schedule(host, victim, 6)
        for action in ("corrupt_link", "flaky_link"):
            for rate in rates:
                for seed in seeds:
                    faults = FaultSchedule(
                        [FaultEvent(0, action, u, v, rate=rate, seed=seed)
                         for u, v in links]
                    )
                    stats = SynchronousNetwork(
                        host, router="adaptive"
                    ).deliver_scheduled(schedule, faults=faults)
                    runs += 1
                    deliveries += len(stats.delivery_cycle)
                    corrupted += stats.n_corrupted
                    retransmits += stats.n_retransmits
                    silent += stats.n_silent_corruptions
                    reasons |= set(stats.failed.values())
                    # every message is accounted for: delivered or failed
                    if len(stats.delivery_cycle) + len(stats.failed) != stats.n_messages:
                        unaccounted += 1
    passed = silent == 0 and unaccounted == 0 and reasons <= {"integrity"}
    return {
        "name": "silent_corruption_corpus",
        "params": {"runs": runs, "rates": list(rates),
                   "seeds": len(list(seeds)), "hosts": [h.name for h in hosts]},
        "n_delivered": deliveries,
        "n_corrupted_detected": corrupted,
        "n_retransmits": retransmits,
        "n_silent_corruptions": silent,
        "failure_reasons": sorted(reasons),
        "gate": "0 silent corruptions; every loss is a structured 'integrity'",
        "gated": True,
        "passed": passed,
    }


def bench_byzantine_free_bit_identity() -> dict:
    """The service reference scenarios' makespans must be untouched by
    the protocol.

    The anchor comparison is the gate: ``makespans`` is anchored to the
    values bench_service's ``scenario_reference_makespans`` is anchored
    to, and any difference fails the gate runner."""
    plain = run_scenario(Scenario.from_obj(PLAIN_DOC)).makespan
    faulted = run_scenario(Scenario.from_obj(FAULT_DOC)).makespan
    long_run = run_scenario(
        Scenario.from_json(REPO / "scenarios" / "long_run.json")
    ).makespan
    got = {"plain": plain, "faulted": faulted, "long_run": long_run}
    return {
        "name": "byzantine_free_bit_identity",
        "params": {"scenarios": sorted(got)},
        "makespans": got,
        "gate": "byzantine-free makespans equal the anchored reference makespans exactly",
        "gated": False,
        "passed": True,
    }


def bench_low_rate_overhead(*, rate=0.01, seed=0) -> dict:
    """Every link byzantine at 1%: bounded slowdown, full delivery."""
    host = XTree(4)
    schedule = hotspot_schedule(host, _HOT4)
    base = SynchronousNetwork(host, router="adaptive").deliver_scheduled(schedule)
    faults = FaultSchedule(
        [FaultEvent(0, "corrupt_link", u, v, rate=rate, seed=seed)
         for u, v in host.edges()]
    )
    hurt = SynchronousNetwork(host, router="adaptive").deliver_scheduled(
        schedule, faults=faults
    )
    passed = (
        not hurt.failed
        and hurt.n_silent_corruptions == 0
        and hurt.cycles <= MAX_BYZANTINE_SLOWDOWN * base.cycles
    )
    return {
        "name": "low_rate_corruption_overhead",
        "params": {"r": 4, "hot": list(_HOT4), "rate": rate, "seed": seed},
        "fault_free_cycles": base.cycles,
        "byzantine_cycles": hurt.cycles,
        "slowdown": hurt.cycles / base.cycles,
        "n_corrupted": hurt.n_corrupted,
        "n_retransmits": hurt.n_retransmits,
        "n_quarantined": hurt.n_quarantined,
        "complete": not hurt.failed,
        "gate": f"complete delivery within {MAX_BYZANTINE_SLOWDOWN}x fault-free",
        "gated": True,
        "passed": passed,
    }


def bench_storm_termination() -> dict:
    """Unrecoverable corruption must fail structured, never hang or lie."""
    res = run_scenario(
        Scenario.from_json(REPO / "scenarios" / "byzantine_storm.json")
    )
    d = res.as_dict()
    reasons: set[str] = set()
    n_failed = 0
    for job in d["jobs"]:
        reasons |= set(job["failed"].values())
        n_failed += len(job["failed"])
    passed = not res.complete and n_failed > 0 and reasons == {"integrity"}
    return {
        "name": "byzantine_storm_termination",
        "params": {"scenario": "byzantine_storm"},
        "makespan_cycles": d["makespan"],
        "n_failed": n_failed,
        "failure_reasons": sorted(reasons),
        "n_corrupted": d["counters"].get("integrity.corrupted", 0),
        "n_quarantined": d["counters"].get("integrity.quarantined", 0),
        "gate": "terminates incomplete with every loss marked 'integrity'",
        "gated": True,
        "passed": passed,
    }


def bench_recoverable_scenario() -> dict:
    """The library byzantine scenario completes despite live corruption."""
    res = run_scenario(Scenario.from_json(REPO / "scenarios" / "byzantine.json"))
    d = res.as_dict()
    detected = d["counters"].get("integrity.corrupted", 0)
    retrans = d["counters"].get("integrity.retransmits", 0)
    passed = res.complete and detected > 0 and retrans > 0
    return {
        "name": "byzantine_recoverable_scenario",
        "params": {"scenario": "byzantine"},
        "makespan_cycles": d["makespan"],
        "n_corrupted": detected,
        "n_retransmits": retrans,
        "n_quarantined": d["counters"].get("integrity.quarantined", 0),
        "gate": "completes (exit 0) with corruption detected and retransmitted",
        "gated": True,
        "passed": passed,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    return [
        partial(bench_silent_corruption_corpus, smoke),
        bench_byzantine_free_bit_identity,
        bench_low_rate_overhead,
        bench_storm_termination,
        bench_recoverable_scenario,
    ]
