"""Policy-DSL benchmark: tuned decision trees vs built-in baselines (PR 8).

Four families of measurements, all exact cycle counts (deterministic and
machine-independent, so ``benchmarks/anchors.json`` fixes them):

* **tuned hot-spot gate** — the acceptance gate: the committed
  ``policies/hot_spot_router.json`` (tuned by ``repro.policy.tune``
  against the two committed hot-spot scenarios) must

  - close at least ``MIN_TERMINAL_CLOSURE`` (50%) of the adaptive
    router's regression on the *terminal-bound* workload (where the hot
    image sits on a degree-limited corner and blind spreading burns
    detour cycles: adaptive loses ~12.5% to deterministic there), and
  - beat **both** built-in baselines on the combined two-scenario total
    — i.e. keep essentially all of the adaptive router's interior-case
    win while fixing its terminal-case loss.

* **no-op tree parity** — the refactor gate: a routing tree with empty
  weights and the ``index`` tie-break must reproduce the deterministic
  router *bit-identically*, and a scheduling tree scoring pure
  ``virtual_time`` with the ``order`` tie-break must reproduce the
  fair-share policy bit-identically.  The DSL layer adds expressiveness,
  not behaviour drift.

* **tune reproducibility** — two ``tune()`` sweeps with the same
  ``(template, scenarios, method, budget, seed)`` must produce
  byte-identical tuning logs; the committed document's provenance must
  name an objective this checkout still reproduces.

* **checkpoint round-trip** — a tuned-policy scenario interrupted at a
  checkpoint and resumed must finish bit-identical to the uninterrupted
  run (policy documents travel inside checkpoints).

Workloads are the committed ``scenarios/hot_spot_terminal.json`` /
``scenarios/hot_spot_interior.json`` pair — small enough that the full
and the smoke sizes coincide.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from functools import partial
from pathlib import Path

from repro.policy import PolicyDoc
from repro.policy.templates import TEMPLATES
from repro.policy.tune import tune
from repro.service.scenario import Scenario, run_scenario

REPO = Path(__file__).resolve().parent.parent

MIN_TERMINAL_CLOSURE = 0.5

TERMINAL = REPO / "scenarios" / "hot_spot_terminal.json"
INTERIOR = REPO / "scenarios" / "hot_spot_interior.json"
TUNED_DOC = REPO / "policies" / "hot_spot_router.json"


def _makespan(scenario: Scenario, **overrides) -> int:
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return run_scenario(scenario).makespan


def bench_tuned_hotspot() -> dict:
    """The headline gate: the committed tuned tree vs both baselines."""
    terminal = Scenario.from_json(TERMINAL)
    interior = Scenario.from_json(INTERIOR)
    doc = PolicyDoc.from_json(TUNED_DOC)

    det_t = _makespan(terminal, router="deterministic")
    det_i = _makespan(interior, router="deterministic")
    ada_t = _makespan(terminal, router="adaptive")
    ada_i = _makespan(interior, router="adaptive")
    tuned_t = _makespan(terminal, router=doc.as_dict())
    tuned_i = _makespan(interior, router=doc.as_dict())

    # how much of the adaptive router's terminal-bound regression the
    # tuned tree recovers (1.0 = all the way back to deterministic)
    gap = ada_t - det_t
    closure = (ada_t - tuned_t) / gap if gap > 0 else 1.0
    tuned_total = tuned_t + tuned_i
    beats_both = tuned_total < min(det_t + det_i, ada_t + ada_i)
    passed = closure >= MIN_TERMINAL_CLOSURE and beats_both
    return {
        "name": "tuned_hotspot_gate",
        "params": {"doc": doc.name, "scenarios": ["terminal", "interior"]},
        "deterministic_terminal_cycles": det_t,
        "deterministic_interior_cycles": det_i,
        "adaptive_terminal_cycles": ada_t,
        "adaptive_interior_cycles": ada_i,
        "tuned_terminal_cycles": tuned_t,
        "tuned_interior_cycles": tuned_i,
        "tuned_total_cycles": tuned_total,
        "terminal_closure": round(closure, 4),
        "gate": (
            f"terminal closure >= {MIN_TERMINAL_CLOSURE} and tuned total "
            "beats both baselines"
        ),
        "gated": True,
        "passed": passed,
    }


def bench_noop_parity() -> dict:
    """Empty-weight trees must be bit-identical to the built-ins."""
    terminal = Scenario.from_json(TERMINAL)
    hot_spot = Scenario.from_json(REPO / "scenarios" / "hot_spot.json")

    noop_router = {
        "version": 1,
        "name": "noop",
        "domain": "routing",
        "tree": {"action": "score", "weights": {}, "tiebreak": "index"},
    }
    base_route = run_scenario(terminal).as_dict()
    tree_route = run_scenario(
        dataclasses.replace(terminal, router=noop_router)
    ).as_dict()
    route_identical = _strip_policy(base_route) == _strip_policy(tree_route)

    fair_sched = {
        "version": 1,
        "name": "fair-as-a-tree",
        "domain": "scheduling",
        "tree": {
            "action": "score",
            "weights": {"virtual_time": 1.0},
            "tiebreak": "order",
        },
    }
    base_sched = run_scenario(hot_spot).as_dict()
    tree_sched = run_scenario(
        dataclasses.replace(hot_spot, policy=fair_sched)
    ).as_dict()
    sched_identical = _strip_policy(base_sched) == _strip_policy(tree_sched)

    return {
        "name": "noop_tree_parity",
        "params": {"scenarios": ["hot_spot_terminal", "hot_spot"]},
        "routing_makespan_cycles": tree_route["makespan"],
        "scheduling_makespan_cycles": tree_sched["makespan"],
        "routing_identical": route_identical,
        "scheduling_identical": sched_identical,
        "gate": "no-op trees reproduce deterministic/fair bit-identically",
        "gated": True,
        "passed": route_identical and sched_identical,
    }


def _strip_policy(result: dict) -> dict:
    """Result minus the policy label (names differ, behaviour must not)."""
    return {k: v for k, v in result.items() if k != "policy"}


def bench_tune_reproducibility(budget: int) -> dict:
    """Same seed, same sweep: the tuning log is deterministic, and the
    committed document's provenance objective still reproduces."""
    scenarios = [Scenario.from_json(TERMINAL), Scenario.from_json(INTERIOR)]
    runs = [
        tune(TEMPLATES["route-hotspot"], scenarios,
             method="random", budget=budget, seed=0)
        for _ in range(2)
    ]
    logs_identical = (
        json.dumps(runs[0].log, sort_keys=True)
        == json.dumps(runs[1].log, sort_keys=True)
    )
    doc = PolicyDoc.from_json(TUNED_DOC)
    committed = doc.provenance["objective"]
    reproduced = sum(
        _makespan(sc, router=doc.as_dict()) for sc in scenarios
    )
    return {
        "name": "tune_reproducibility",
        "params": {"method": "random", "budget": budget, "seed": 0},
        "best_objective_cycles": runs[0].objective,
        "committed_objective_cycles": reproduced,
        "logs_identical": logs_identical,
        "provenance_matches": reproduced == committed,
        "gate": "identical logs across runs; committed provenance reproduces",
        "gated": True,
        "passed": logs_identical and reproduced == committed,
    }


def bench_checkpoint_roundtrip() -> dict:
    """Interrupt a tuned-policy run at a checkpoint; the resumed run must
    be bit-identical to the uninterrupted one."""
    from repro.runtime import Runtime

    doc = PolicyDoc.from_json(TUNED_DOC)
    sc = dataclasses.replace(
        Scenario.from_json(INTERIOR), router=doc.as_dict()
    )
    reference = run_scenario(sc).as_dict()

    rt = sc.build_runtime()
    rt.step()  # partial progress, then freeze and thaw
    with tempfile.TemporaryDirectory(prefix="bench-policy-") as tmp:
        ckpt = Path(tmp) / "policy_ckpt.json"
        rt.checkpoint_json(ckpt)
        resumed = Runtime.restore_json(ckpt)
    while resumed.step() is not None:
        pass
    identical = resumed.result().as_dict() == reference
    return {
        "name": "checkpoint_policy_roundtrip",
        "params": {"scenario": "hot_spot_interior"},
        "resumed_makespan_cycles": resumed.result().makespan,
        "bit_identical": identical,
        "gate": "resumed tuned-policy run bit-identical to uninterrupted",
        "gated": True,
        "passed": identical,
    }


def run(smoke: bool = False) -> list:
    """The cases, as callables for ``gates.py``; both sizes are the same."""
    return [
        bench_tuned_hotspot,
        bench_noop_parity,
        partial(bench_tune_reproducibility, budget=4),
        bench_checkpoint_roundtrip,
    ]
