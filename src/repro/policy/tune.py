"""Search over policy trees: grid / random / cross-entropy, reproducibly.

The tuner closes the loop the DSL opens: a *template* of
:mod:`repro.policy.templates` is a parametric policy tree (a small vector
of numeric knobs and a ``build`` function producing the tree), and
:func:`tune` searches the knob space against scenario-library
workloads — each candidate document is applied to every
scenario (replacing its ``policy`` or ``router`` by domain), run to
completion, and scored by total makespan.  Scenarios are deterministic
(the service's core contract), so the objective is exact: no repetitions,
no noise floor, and a fixed ``(template, scenarios, method, budget,
seed)`` tuple reproduces the whole sweep byte-for-byte — the tuning log
is part of a winning document's provenance, and CI re-derives it.

Three search methods, all driven by one seeded ``random.Random``:

* ``grid``   — the cartesian product of each knob's ``grid`` values, in
  deterministic order, truncated at ``budget``;
* ``random`` — ``budget`` uniform draws from each knob's ``[lo, hi]``;
* ``cem``    — a simple cross-entropy loop: sample a population from a
  per-knob Gaussian (clipped to ``[lo, hi]``), refit mean/std to the
  elite quartile, repeat until the budget is spent.  The std is floored
  at 5% of the knob range so the search never collapses prematurely.

Scheduling-domain candidates run on the vectorised kernel (their runs
keep the deterministic router); routing-domain candidates run on the
classic loop, as every adaptive router does.  The tuner picks neither:
each delivery's dispatch does.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from ..service.scenario import run_scenario
from .dsl import PolicyDoc
from .templates import TEMPLATES, Template

__all__ = ["TuneResult", "apply_policy", "evaluate_doc", "tune"]


def apply_policy(scenario, doc: PolicyDoc | dict):
    """``scenario`` with ``doc`` installed in its domain's slot."""
    if isinstance(doc, dict):
        doc = PolicyDoc.from_obj(doc)
    if doc.domain == "scheduling":
        return replace(scenario, policy=doc.as_dict())
    return replace(scenario, router=doc.as_dict())


def evaluate_doc(doc: PolicyDoc | dict, scenarios) -> dict:
    """Run every scenario under ``doc``; exact cycle counts, no noise.

    Returns ``{"total": int, "per_scenario": {name: makespan}}``.
    """
    per = {}
    for sc in scenarios:
        per[sc.name] = run_scenario(apply_policy(sc, doc)).makespan
    return {"total": sum(per.values()), "per_scenario": per}


def _baselines(domain: str, scenarios) -> dict:
    """The built-in policies' exact scores on the same workloads."""
    if domain == "routing":
        variants = {
            "deterministic": lambda sc: replace(sc, router="deterministic"),
            "adaptive": lambda sc: replace(sc, router="adaptive"),
        }
    else:
        variants = {
            "fifo": lambda sc: replace(sc, policy="fifo"),
            "fair": lambda sc: replace(sc, policy="fair"),
        }
    out = {}
    for name, mutate in variants.items():
        per = {sc.name: run_scenario(mutate(sc)).makespan for sc in scenarios}
        out[name] = {"total": sum(per.values()), "per_scenario": per}
    return out


@dataclass
class TuneResult:
    """Winner of one sweep plus the full reproducible log."""

    doc: PolicyDoc
    params: dict
    objective: int
    log: dict

    def write_log(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.log, indent=2) + "\n")


def _grid_candidates(template: Template, budget: int):
    axes = []
    for p in template.params:
        axes.append([p.clip(v) for v in (p.grid or (p.lo, p.hi))])
    names = [p.name for p in template.params]
    combos = itertools.product(*axes)
    return [dict(zip(names, c)) for c in itertools.islice(combos, budget)]


def _random_candidates(template: Template, budget: int, rng: random.Random):
    out = []
    for _ in range(budget):
        out.append({
            p.name: p.clip(rng.uniform(p.lo, p.hi)) for p in template.params
        })
    return out


def tune(
    template: Template | str,
    scenarios,
    *,
    method: str = "random",
    budget: int = 16,
    seed: int = 0,
    log_path: str | Path | None = None,
) -> TuneResult:
    """Search ``template``'s knob space against ``scenarios``.

    Every candidate is logged in evaluation order with its exact
    objective; the best (ties to the earliest) becomes the winning
    document, stamped with provenance sufficient to re-run the sweep.
    """
    if isinstance(template, str):
        try:
            template = TEMPLATES[template]
        except KeyError:
            raise ValueError(
                f"unknown template {template!r}: expected one of {sorted(TEMPLATES)}"
            ) from None
    if method not in ("grid", "random", "cem"):
        raise ValueError(
            f"unknown tune method {method!r}: expected grid, random, or cem"
        )
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("tune needs at least one scenario")

    rng = random.Random(seed)
    cache: dict[tuple, dict] = {}
    entries: list[dict] = []

    def score(params: dict) -> int:
        key = tuple(params[p.name] for p in template.params)
        if key not in cache:
            cache[key] = evaluate_doc(template.make_doc(params), scenarios)
        result = cache[key]
        entries.append({
            "params": dict(params),
            "objective": result["total"],
            "per_scenario": dict(result["per_scenario"]),
        })
        return result["total"]

    if method == "grid":
        for cand in _grid_candidates(template, budget):
            score(cand)
    elif method == "random":
        for cand in _random_candidates(template, budget, rng):
            score(cand)
    else:  # cem
        params = template.params
        mean = {p.name: (p.lo + p.hi) / 2 for p in params}
        std = {p.name: (p.hi - p.lo) / 2 for p in params}
        pop = min(budget, max(4, budget // 4))
        spent = 0
        while spent < budget:
            batch = []
            for _ in range(min(pop, budget - spent)):
                batch.append({
                    p.name: p.clip(rng.gauss(mean[p.name], std[p.name]))
                    for p in params
                })
            scored = sorted(
                ((score(c), i, c) for i, c in enumerate(batch)),
                key=lambda t: (t[0], t[1]),
            )
            spent += len(batch)
            elite = [c for _s, _i, c in scored[: max(1, len(scored) // 4)]]
            for p in params:
                vals = [c[p.name] for c in elite]
                m = sum(vals) / len(vals)
                var = sum((v - m) ** 2 for v in vals) / len(vals)
                mean[p.name] = m
                std[p.name] = max(var**0.5, (p.hi - p.lo) * 0.05)

    best = min(enumerate(entries), key=lambda t: (t[1]["objective"], t[0]))[1]
    baselines = _baselines(template.domain, scenarios)
    log = {
        "version": 1,
        "template": template.name,
        "domain": template.domain,
        "method": method,
        "seed": seed,
        "budget": budget,
        "scenarios": [sc.name for sc in scenarios],
        "baselines": baselines,
        "candidates": entries,
        "best": dict(best),
    }
    provenance = {
        "template": template.name,
        "method": method,
        "seed": seed,
        "budget": budget,
        "params": dict(best["params"]),
        "objective": best["objective"],
        "baselines": {name: b["total"] for name, b in baselines.items()},
        "scenarios": [sc.name for sc in scenarios],
    }
    doc = template.make_doc(best["params"], provenance)
    result = TuneResult(
        doc=doc, params=dict(best["params"]), objective=best["objective"], log=log
    )
    if log_path is not None:
        result.write_log(log_path)
    return result
