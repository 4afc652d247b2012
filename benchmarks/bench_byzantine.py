"""Byzantine-link integrity benchmark: detection, overhead, purity (PR 9).

Four gated measurements of the engine's end-to-end integrity protocol
(per-message checksum, NACK + source retransmit with exponential
backoff, EWMA-driven link quarantine) plus one regression anchor:

* **zero silent corruption** — a seeded corpus of byzantine deliveries
  (corrupt and flaky links, rates 5%..100%, many coin seeds, two hosts).
  Every run must terminate with each message either delivered with a
  *verified* payload or failed with a structured reason; the engine's
  ``n_silent_corruptions`` ground-truth counter (payload word changed
  but the CRC still matched) must be zero across the whole corpus.
* **byzantine-free bit-identity** — the PR 7 reference scenarios re-run
  on this build must reproduce the makespans committed in
  ``BENCH_PR7.json`` exactly: the protocol must be invisible when no
  byzantine event exists (the non-byzantine path is untouched).
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
  makespan is the deterministic regression metric.

Writes ``BENCH_PR9.json`` at the repo root.  Run::

    PYTHONPATH=src python benchmarks/bench_byzantine.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_router import hotspot_schedule  # noqa: E402
from bench_service import FAULT_DOC, PLAIN_DOC  # noqa: E402

from repro.networks import XTree  # noqa: E402
from repro.service import Scenario, run_scenario  # noqa: E402
from repro.simulate import (  # noqa: E402
    FaultEvent,
    FaultSchedule,
    Message,
    SynchronousNetwork,
)

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
    """The PR 7 scenario makespans must be untouched by the protocol."""
    anchors = json.loads((REPO / "BENCH_PR7.json").read_text())
    ref = next(
        r for r in anchors["results"]
        if r["name"] == "scenario_reference_makespans"
    )
    plain = run_scenario(Scenario.from_obj(PLAIN_DOC)).makespan
    faulted = run_scenario(Scenario.from_obj(FAULT_DOC)).makespan
    long_run = run_scenario(
        Scenario.from_json(REPO / "scenarios" / "long_run.json")
    ).makespan
    got = {"plain": plain, "faulted": faulted, "long_run": long_run}
    want = {
        "plain": ref["plain_makespan_cycles"],
        "faulted": ref["faulted_makespan_cycles"],
        "long_run": ref["long_run_makespan_cycles"],
    }
    return {
        "name": "byzantine_free_bit_identity",
        "params": {"scenarios": sorted(got), "anchor": "BENCH_PR7.json"},
        "makespans": got,
        "anchor_makespans": want,
        "gate": "byzantine-free makespans equal the PR 7 anchors exactly",
        "gated": True,
        "passed": got == want,
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


def run(smoke: bool = False) -> dict:
    results = [
        bench_silent_corruption_corpus(smoke),
        bench_byzantine_free_bit_identity(),
        bench_low_rate_overhead(),
        bench_storm_termination(),
        bench_recoverable_scenario(),
    ]
    return {
        "bench": "byzantine integrity (PR 9)",
        "smoke": smoke,
        "python": sys.version.split()[0],
        "max_byzantine_slowdown": MAX_BYZANTINE_SLOWDOWN,
        "results": results,
        "all_pass": all(res["passed"] for res in results if res["gated"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus for CI")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO / "BENCH_PR9.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    record = run(smoke=args.smoke)
    for res in record["results"]:
        status = "pass" if res["passed"] else "FAIL"
        if res["name"] == "silent_corruption_corpus":
            detail = (
                f"{res['params']['runs']} runs: {res['n_corrupted_detected']} "
                f"detected, {res['n_retransmits']} retransmits, "
                f"{res['n_silent_corruptions']} silent"
            )
        elif res["name"] == "byzantine_free_bit_identity":
            detail = ", ".join(
                f"{k} {v}" for k, v in sorted(res["makespans"].items())
            )
        elif res["name"] == "low_rate_corruption_overhead":
            detail = (
                f"base {res['fault_free_cycles']} -> {res['byzantine_cycles']} "
                f"cycles (x{res['slowdown']:.2f}), "
                f"{res['n_retransmits']} retransmits"
            )
        else:
            detail = (
                f"makespan {res['makespan_cycles']}, corrupted "
                f"{res['n_corrupted']}, reasons "
                f"{res.get('failure_reasons', [])}"
            )
        print(f"{res['name']:<32} [{status}]  {detail}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if record["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
