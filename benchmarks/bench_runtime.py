"""Acceptance benchmark for the multi-tenant runtime (PR 5).

Three gated measurements:

* **online vs offline repair** — a node death mid-run, handled two ways.
  *Online*: the runtime repairs the embedding in place, migrates the
  stranded messages and keeps going (`repro.runtime`).  *Offline*: the
  classic operational answer — the faulted attempt runs to its degraded
  end, the embedding is repaired, and the whole program re-runs from
  scratch on the repaired embedding.  Gate: online makespan <= offline
  total cycles (attempt + rerun).  Online should win by roughly the
  cycles the offline rerun repeats.
* **checkpoint/restore bit-identity** — the same faulted multi-tenant
  run, uninterrupted vs checkpointed at several cut points, restored
  from the JSON and continued.  Gate: the final ``RuntimeResult`` dicts
  (per-message delivery cycles included) are *equal* at every cut.
* **single-job overhead** — one job driven through the runtime vs the
  same program + embedding through ``simulate_on_host`` directly, timed
  interleaved with the cyclic GC paused (median of per-pair ratios, as
  in ``bench_obs``).  Gate: the runtime's scheduling layer costs <= 5%.

Writes ``BENCH_PR5.json`` at the repo root.  Run::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_obs import _best_of_pair

from repro.core.xtree_embed import embed_binary_tree
from repro.networks import XTree
from repro.runtime import Job, JobSpec, Runtime
from repro.simulate import FaultEvent, FaultSchedule, repair_embedding
from repro.simulate.mapping import simulate_on_host
from repro.simulate.programs import PROGRAMS
from repro.trees import make_tree

MAX_RUNTIME_OVERHEAD_PCT = 5.0

DEAD_NODE = (2, 1)


def _job_specs(r: int) -> list[JobSpec]:
    return [
        JobSpec(name="a", program="reduction", tree_n=15, capacity=4, height=r),
        JobSpec(
            name="b", program="prefix_sum", tree_n=12, tree_seed=3,
            capacity=4, height=r,
        ),
    ]


def _runtime(r: int, faults=None, policy="fair") -> Runtime:
    rt = Runtime(XTree(r), policy=policy, faults=faults)
    for spec in _job_specs(r):
        rt.admit(spec)
    return rt


def bench_online_vs_offline(r: int) -> dict:
    """One node death: live repair + migration vs degraded attempt + rerun."""
    faults = FaultSchedule([FaultEvent(cycle=1, action="fail_node", u=DEAD_NODE)])

    online = _runtime(r, faults=faults).run()
    assert online.complete, "online repair failed to deliver everything"
    assert online.n_repairs >= 1, "fault never triggered a repair"

    # offline: each job's attempt runs into the fault and degrades; then
    # its embedding is repaired and the *whole* program reruns on the
    # repaired embedding with the node still dead (fail_node at cycle 0)
    offline_total = 0
    rerun_faults = FaultSchedule(
        [FaultEvent(cycle=0, action="fail_node", u=DEAD_NODE)]
    )
    for spec in _job_specs(r):
        tree = make_tree(spec.tree_family, spec.tree_n, seed=spec.tree_seed)
        emb = embed_binary_tree(tree, height=spec.height, capacity=spec.capacity).embedding
        prog = PROGRAMS[spec.program](emb.guest)
        attempt = simulate_on_host(prog, emb, faults=faults)
        offline_total += attempt.result.total_cycles
        repaired = repair_embedding(emb, {DEAD_NODE}).embedding
        rerun = simulate_on_host(prog, repaired, faults=rerun_faults)
        assert rerun.report.complete, "offline rerun still lost messages"
        offline_total += rerun.result.total_cycles

    return {
        "name": "online_vs_offline_repair",
        "params": {"r": r, "jobs": 2, "dead_node": list(DEAD_NODE)},
        "online_makespan_cycles": online.makespan,
        "offline_total_cycles": offline_total,
        "saving_pct": (1.0 - online.makespan / offline_total) * 100.0,
        "repairs": online.n_repairs,
        "migrated": online.n_migrated,
        "gate": "online<=offline",
        "gated": True,
        "passed": online.makespan <= offline_total,
    }


def bench_checkpoint_identity(r: int, cuts=(1, 4, 9, 15)) -> dict:
    """Checkpoint mid-run, restore from JSON, compare final results."""
    faults = FaultSchedule([FaultEvent(cycle=1, action="fail_node", u=DEAD_NODE)])
    full = _runtime(r, faults=faults).run().as_dict()
    identical = []
    for cut in cuts:
        rt = _runtime(r, faults=faults)
        for _ in range(cut):
            if rt.step() is None:
                break
        blob = json.dumps(rt.checkpoint())
        resumed = Runtime.restore(json.loads(blob)).run().as_dict()
        identical.append(resumed == full)
    return {
        "name": "checkpoint_restore_identity",
        "params": {"r": r, "cuts": list(cuts)},
        "makespan_cycles": full["makespan"],
        "identical_at_cut": identical,
        "gate": "bit-identical at every cut",
        "gated": True,
        "passed": all(identical),
    }


def bench_single_job_overhead(r: int, repeats: int) -> dict:
    """Runtime scheduling layer vs direct ``simulate_on_host``.

    A full-size capacity-16 guest running ``neighbor_exchange`` — the
    densest per-superstep pattern a tree program has, and the same
    steady-state workload ``bench_obs`` times its trace recorder on.  Dense
    supersteps are where engine cycles actually go, so the gate measures
    the scheduling layer rather than fixed per-superstep bookkeeping on
    near-empty padded-chain supersteps.  Embedding and program are
    prebuilt on both sides (``simulate_on_host`` takes them prebuilt by
    signature).
    """
    from repro.core.embedding import Embedding
    from repro.trees import theorem1_guest_size

    spec = JobSpec(name="solo", program="neighbor_exchange",
                   tree_n=theorem1_guest_size(r), tree_seed=3, height=r,
                   program_args={"rounds": 8})
    host = XTree(r)
    tree = make_tree(spec.tree_family, spec.tree_n, seed=spec.tree_seed)
    emb = embed_binary_tree(tree, height=spec.height, capacity=spec.capacity).embedding
    emb = Embedding(emb.guest, host, emb.phi)  # pre-anchored on the shared host
    prog = PROGRAMS[spec.program](emb.guest, **spec.program_args)

    def run_direct():
        return simulate_on_host(prog, emb)

    def run_runtime():
        rt = Runtime(host)
        rt.admit(Job(spec, host, embedding=emb, program=prog))
        return rt.run()

    # semantics check: the runtime delivers the same total cycle count
    direct_cycles = run_direct().total_cycles
    rt_res = run_runtime()
    assert rt_res.complete
    assert rt_res.makespan == direct_cycles, (
        f"runtime makespan {rt_res.makespan} != direct {direct_cycles}"
    )

    direct_s, runtime_s, ratio = _best_of_pair(run_direct, run_runtime, repeats)
    overhead_pct = (ratio - 1.0) * 100.0
    return {
        "name": "single_job_runtime_overhead",
        "params": {"r": r, "program": spec.program, "repeats": repeats},
        "direct_s": direct_s,
        "runtime_s": runtime_s,
        "overhead_pct": overhead_pct,
        "makespan_cycles": direct_cycles,
        "gate": f"overhead<={MAX_RUNTIME_OVERHEAD_PCT}%",
        "gated": True,
        "passed": overhead_pct <= MAX_RUNTIME_OVERHEAD_PCT,
    }


def run(smoke: bool = False, repeats: int = 30) -> dict:
    r = 4
    repeats = max(10, repeats // 3) if smoke else max(repeats, 30)
    results = [
        bench_online_vs_offline(r),
        bench_checkpoint_identity(r, cuts=(1, 4) if smoke else (1, 4, 9, 15)),
        bench_single_job_overhead(r, repeats),
    ]
    return {
        "bench": "runtime (PR 5)",
        "smoke": smoke,
        "python": sys.version.split()[0],
        "max_runtime_overhead_pct": MAX_RUNTIME_OVERHEAD_PCT,
        "results": results,
        "all_pass": all(res["passed"] for res in results if res["gated"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small instances for CI")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_PR5.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    record = run(smoke=args.smoke, repeats=args.repeats)
    for res in record["results"]:
        status = "pass" if res["passed"] else "FAIL"
        if res["name"] == "online_vs_offline_repair":
            detail = (
                f"online {res['online_makespan_cycles']} vs offline "
                f"{res['offline_total_cycles']} cycles "
                f"(saves {res['saving_pct']:.1f}%, {res['repairs']} repairs, "
                f"{res['migrated']} migrated)"
            )
        elif res["name"] == "checkpoint_restore_identity":
            detail = f"identical at cuts {res['params']['cuts']}: {res['identical_at_cut']}"
        else:
            detail = (
                f"direct {res['direct_s'] * 1e3:.2f} ms vs runtime "
                f"{res['runtime_s'] * 1e3:.2f} ms (overhead {res['overhead_pct']:+.2f}%)"
            )
        print(f"{res['name']:<30} [{status}]  {detail}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if record["all_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
