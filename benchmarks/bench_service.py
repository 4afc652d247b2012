"""Acceptance benchmark for the simulation service (PR 7).

Three gated measurements:

* **concurrent load, bit-identical** — N concurrent scenario submissions
  (120; 12 at smoke size) over the REST API against a 2-shard
  worker fleet, mixing plain and node-death-fault scenarios.  Gate:
  every job completes, both shards execute work, and every per-job
  ``RuntimeResult`` — per-message delivery cycles included — is
  *bit-identical* to a direct in-process ``run_scenario`` of the same
  document.  The summed makespan (``fleet_total_makespan_cycles``) is
  anchored: HTTP, placement, worker processes and checkpointing must all
  be invisible in the numbers.
* **killed-worker recovery** — submit the ``scenarios/long_run.json``
  workhorse, SIGKILL its worker mid-run (checkpoint on disk, no result
  yet), run fleet recovery, and let the requeued job resume — typically
  on the *other* shard (migration).  Gate: the job finishes on attempt
  2 with a result bit-identical to an uninterrupted direct run.
* **occupancy placement** — submissions with deliberately unequal
  weights land so that the final queued+running weight gap between
  shards never exceeds the heaviest single scenario.  Gate: balanced
  placement under the load-16-derived weight signal.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

import tempfile
import time
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

from repro.service import (  # noqa: E402
    Fleet,
    Scenario,
    ServiceClient,
    run_load,
    run_scenario,
    scenario_variants,
)
from repro.service.api import ApiServer  # noqa: E402

PLAIN_DOC = {
    "version": 1,
    "name": "plain",
    "host": {"name": "xtree", "args": [3]},
    "jobs": [
        {"name": "a", "program": "reduction", "tree_n": 15,
         "capacity": 4, "height": 3},
        {"name": "b", "program": "broadcast", "tree_n": 15,
         "capacity": 4, "height": 3},
    ],
}

FAULT_DOC = {
    "version": 1,
    "name": "faulted",
    "host": {"name": "xtree", "args": [4]},
    "jobs": [
        {"name": "a", "program": "prefix_sum", "tree_n": 15,
         "capacity": 4, "height": 4},
        {"name": "b", "program": "broadcast", "tree_n": 15,
         "capacity": 4, "height": 4},
    ],
    "faults": {"events": [
        {"cycle": 1, "action": "fail_node", "u": [2, 1]},
        {"cycle": 8, "action": "fail_node", "u": [3, 2]},
    ]},
}


def bench_concurrent_load(n: int, shards: int) -> dict:
    """N concurrent HTTP submissions, each verified bit-identical."""
    half = n // 2
    scenarios = (
        scenario_variants(Scenario.from_obj(PLAIN_DOC), n - half)
        + scenario_variants(Scenario.from_obj(FAULT_DOC), half)
    )
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        fleet = Fleet(Path(root), n_shards=shards)
        fleet.start()
        server = ApiServer(fleet)
        server.serve_background()
        try:
            client = ServiceClient(server.address)
            report = run_load(
                client, scenarios, concurrency=min(32, n), timeout=600, verify=True
            )
        finally:
            server.shutdown()
            fleet.stop()
    used_shards = len(report.jobs_per_shard)
    passed = report.ok and used_shards >= min(shards, 2)
    return {
        "name": "concurrent_load_bit_identity",
        "params": {"n": n, "shards": shards,
                   "mix": ["plain", "faulted"]},
        "fleet_total_makespan_cycles": report.total_makespan_cycles,
        "n_done": report.n_done,
        "n_mismatched": report.n_mismatched,
        "shards_used": used_shards,
        "jobs_per_shard": report.as_dict()["jobs_per_shard"],
        "gate": "all done, >=2 shards used, 0 mismatches vs direct runs",
        "gated": True,
        "passed": passed,
        "timing": {"wall_s": report.as_dict()["wall_s"]},
    }


def bench_killed_worker_recovery() -> dict:
    """SIGKILL mid-job; the resumed job must match the uninterrupted run."""
    sc = Scenario.from_json(REPO / "scenarios" / "long_run.json")
    ref = run_scenario(sc).as_dict()
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        fleet = Fleet(Path(root), n_shards=2)
        fleet.start()
        try:
            jid = fleet.submit(sc)
            store = fleet.store
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                rec = store.read_meta(jid)
                if rec.status == "running" and store.checkpoint_path(jid).exists():
                    break
                time.sleep(0.002)
            else:
                raise RuntimeError("job never reached running-with-checkpoint")
            killed_shard = rec.shard
            fleet.kill_worker(killed_shard)
            finished_early = store.read_result(jid) is not None
            requeued = fleet.recover()
            fleet.wait([jid], timeout=120)
            final = store.read_meta(jid)
            result = store.read_result(jid)
        finally:
            fleet.stop()
    identical = result.get("result") == ref
    passed = (
        not finished_early
        and requeued == [jid]
        and final.status == "done"
        and final.attempts == 2
        and result["exit_code"] == 0
        and identical
    )
    return {
        "name": "killed_worker_recovery",
        "params": {"scenario": "long_run", "shards": 2},
        "recovered_makespan_cycles": result["result"]["makespan"],
        "killed_shard": killed_shard,
        "resumed_shard": final.shard,
        "migrated": final.shard != killed_shard,
        "attempts": final.attempts,
        "bit_identical": identical,
        "gate": "attempt 2 completes bit-identical to uninterrupted run",
        "gated": True,
        "passed": passed,
    }


def bench_placement_balance(n: int) -> dict:
    """Unequal-weight submissions stay balanced across shards."""
    light = Scenario.from_obj(PLAIN_DOC)      # weight 8
    heavy = Scenario.from_obj({
        **PLAIN_DOC,
        "name": "heavy",
        "jobs": [{"name": "a", "program": "reduction", "tree_n": 15,
                  "capacity": 16, "height": 3}],
    })                                        # weight 16
    max_weight = max(light.weight, heavy.weight)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        # no workers: placement only, so queue weights are exactly inspectable
        fleet = Fleet(Path(root), n_shards=2)
        for i in range(n):
            fleet.submit(heavy if i % 3 == 0 else light)
        weights = [fleet.store.outstanding_weight(s) for s in range(2)]
    gap = abs(weights[0] - weights[1])
    return {
        "name": "occupancy_placement_balance",
        "params": {"n": n, "weights": [light.weight, heavy.weight]},
        "shard_weights": weights,
        "weight_gap": gap,
        "gate": "gap <= heaviest single scenario",
        "gated": True,
        "passed": gap <= max_weight,
    }


def bench_reference_makespans() -> dict:
    """Deterministic per-scenario makespans, the same at every size."""
    plain = run_scenario(Scenario.from_obj(PLAIN_DOC)).makespan
    faulted = run_scenario(Scenario.from_obj(FAULT_DOC)).makespan
    long_run = run_scenario(
        Scenario.from_json(REPO / "scenarios" / "long_run.json")
    ).makespan
    return {
        "name": "scenario_reference_makespans",
        "params": {"scenarios": ["plain", "faulted", "long_run"]},
        "plain_makespan_cycles": plain,
        "faulted_makespan_cycles": faulted,
        "long_run_makespan_cycles": long_run,
        "gate": "regression anchor only",
        "gated": False,
        "passed": True,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    return [
        bench_reference_makespans,
        partial(bench_concurrent_load, 12 if smoke else 120, shards=2),
        bench_killed_worker_recovery,
        partial(bench_placement_balance, 8 if smoke else 30),
    ]
