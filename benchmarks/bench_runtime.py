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
  run, uninterrupted vs checkpointed into one file after every step,
  with a copy of that file restored at several cut points and
  continued.  Gate: the final ``RuntimeResult`` dicts (per-message
  delivery cycles included) are *equal* at every cut.
* **single-job overhead** — one job driven through the runtime vs the
  same program + embedding through ``simulate_on_host`` directly, timed
  interleaved with the cyclic GC paused (median of per-pair ratios, as
  in ``bench_obs``).  Gate: the runtime's scheduling layer costs <= 5%.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

import shutil
import tempfile
from functools import partial
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
    """Cut a checkpoint file after every step of one run, restore a copy
    of the file taken at each of ``cuts``, compare final results."""
    faults = FaultSchedule([FaultEvent(cycle=1, action="fail_node", u=DEAD_NODE)])
    full = _runtime(r, faults=faults).run().as_dict()
    with tempfile.TemporaryDirectory() as tmp:
        live = Path(tmp) / "checkpoint.json"
        rt = _runtime(r, faults=faults)
        copies, steps = [], 0
        for cut in cuts:
            while steps < cut and rt.step() is not None:
                steps += 1
                rt.checkpoint_json(live)
            copies.append(shutil.copy(live, Path(tmp) / f"cut{cut}.json"))
        while rt.step() is not None:
            rt.checkpoint_json(live)
        assert rt.result().as_dict() == full, "checkpointing changed the run"
        identical = [
            Runtime.restore_json(copy).run().as_dict() == full for copy in copies
        ]
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
        rt.admit(Job(spec, emb, prog))
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
        "makespan_cycles": direct_cycles,
        "gate": f"overhead<={MAX_RUNTIME_OVERHEAD_PCT}%",
        "gated": True,
        "passed": overhead_pct <= MAX_RUNTIME_OVERHEAD_PCT,
        "timing": {"direct_s": direct_s, "runtime_s": runtime_s, "overhead_pct": overhead_pct},
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    r = 4
    return [
        partial(bench_online_vs_offline, r),
        partial(bench_checkpoint_identity, r, cuts=(1, 4) if smoke else (1, 4, 9, 15)),
        partial(bench_single_job_overhead, r, 10 if smoke else 30),
    ]
