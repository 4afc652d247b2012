"""Separator engine + Theorem 4 universal-graph benchmark (PR 10).

Five gated measurements of the flow-based separator engine
(``repro.separators``) and the G_n universal graph
(``repro.networks.universal`` + ``repro.core.universal``):

* **paper-separator bit-identity** — selecting ``--separator paper``
  must reproduce the default pipeline's placement exactly (same ``phi``
  on every generated workload): the protocol wrapper adds observability,
  never behaviour.
* **flow-separator contract** — the max-flow/min-cut separator must
  return structurally sound separations (sides partition the universe,
  designated nodes in the S sets, cut edges exactly the crossing edges,
  every leftover component collinear) on every generated workload;
  Lemma 2 balance/size violations are counted and reported (the flow
  engine trades the paper's worst-case sizes for measured balance).
* **flow embedding quality** — end-to-end embeddings driven by the flow
  separator across tree families: load must stay within the paper's 16,
  dilation is measured against the paper separator's.
* **universal degree + spanning** — G_n at the largest feasible ``n``
  (``t = 11``, 2032 vertices, under the vectorised engine's
  2048-node bound): maximum degree at most (and at ``t >= 11`` exactly)
  ``25*16 + 15 = 415``; Theorem 1 + slot lift yields a *bijective*
  embedding with zero spanning defect and measured dilation/load.
* **universal routing** — real workloads routed on G_n with the
  vectorised engine; host cycles are anchored, with slowdown vs the
  X(t-5) host on the same guest.  The dense next-hop and edge-id tables
  come from one smallest-index sweep on the address quotient, broadcast
  to all vertex pairs, so the t = 11 case costs its deliveries, not a
  sweep of 415 neighbour slots over a 2032 x 2032 distance matrix.

Run with the other gate modules::

    python benchmarks/gates.py [--full]
"""

from __future__ import annotations

from functools import partial

from repro.separators.lemma import lemma2_bound
from repro.core.universal import embed_into_universal, spanning_defect
from repro.core.xtree_embed import theorem1_embedding
from repro.networks.universal import (
    PAPER_DEGREE_BOUND,
    UniversalGraph,
    universal_graph_size,
)
from repro.separators import FlowSeparator
from repro.simulate import (
    PROGRAMS,
    VECTOR_MAX_NODES,
    simulate_on_guest,
    simulate_on_host,
)
from repro.trees.binary_tree import theorem1_guest_size
from repro.trees.generators import make_tree

#: tree families the separator sweeps cover (structurally diverse: dense
#: random, path-like, heavy-spined, and skewed shapes)
FAMILIES = ("random", "path", "caterpillar", "skewed")

#: largest t whose G_n the vector engine takes dense tables for:
#: t = 11, n = 2032 under the 2048-node bound
LARGEST_T = max(t for t in range(5, 16) if universal_graph_size(t) <= VECTOR_MAX_NODES)


def _separation_sound(tree, sep, r1, r2, uni) -> list[str]:
    """Structural-contract violations of one Separation (empty == sound)."""
    problems = []
    if set(sep.side1) | set(sep.side2) != set(uni) or set(sep.side1) & set(sep.side2):
        problems.append("sides do not partition the universe")
    if not sep.s1 <= sep.side1 or not sep.s2 <= sep.side2:
        problems.append("S sets leak outside their sides")
    if not {r1, r2} <= (set(sep.s1) | set(sep.s2)):
        problems.append("designated nodes missing from S sets")
    crossing = {
        (a, b) if a in sep.side1 else (b, a)
        for a, b in tree.edges()
        if a in uni and b in uni
        and ((a in sep.side1) != (b in sep.side1))
    }
    if set(sep.cut_edges) != crossing:
        problems.append("cut edges are not exactly the crossing edges")
    for side, s_nodes in ((sep.side1, sep.s1), (sep.side2, sep.s2)):
        leftover = set(side) - set(s_nodes)
        seen = set()
        for start in leftover:
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                v = stack.pop()
                for u in tree.neighbors(v):
                    if u in leftover and u not in comp:
                        comp.add(u)
                        stack.append(u)
            seen |= comp
            attached = {
                s for s in s_nodes
                if any(u in comp for u in tree.neighbors(s))
            }
            if len(attached) > 2:
                problems.append(f"component of {start} attaches to {len(attached)} S nodes")
    return problems


def bench_paper_bit_identity(smoke: bool) -> dict:
    """``separator="paper"`` must reproduce the default placement exactly."""
    heights = (3,) if smoke else (3, 4)
    seeds = (0,) if smoke else (0, 1)
    checked = mismatches = 0
    for family in FAMILIES:
        for height in heights:
            for seed in seeds:
                tree = make_tree(family, theorem1_guest_size(height), seed=seed)
                default = theorem1_embedding(tree).embedding.phi
                paper = theorem1_embedding(tree, separator="paper").embedding.phi
                checked += 1
                if default != paper:
                    mismatches += 1
    return {
        "name": "paper_separator_bit_identity",
        "params": {"families": list(FAMILIES), "heights": list(heights),
                   "seeds": list(seeds)},
        "n_embeddings": checked,
        "n_mismatches": mismatches,
        "gate": "separator='paper' placements identical to the default pipeline",
        "gated": True,
        "passed": mismatches == 0,
    }


def bench_flow_contract(smoke: bool) -> dict:
    """Direct FlowSeparator splits: structural soundness gated, Lemma 2
    balance/size violations counted as documented diagnostics."""
    import random as _random

    sizes = (40, 90) if smoke else (40, 90, 200, 400)
    seeds = range(2 if smoke else 5)
    sep_engine = FlowSeparator()
    splits = structural_failures = balance_violations = size_violations = 0
    worst_balance_over_tol = 0
    problems: list[str] = []
    for family in FAMILIES:
        for n in sizes:
            for seed in seeds:
                tree = make_tree(family, n, seed=seed)
                rng = _random.Random(seed)
                nodes = sorted(tree.nodes())
                r1 = next(v for v in nodes if len(list(tree.neighbors(v))) <= 2)
                r2 = rng.choice([v for v in nodes if v != r1])
                for delta in sorted({n // 4, n // 2, (3 * n) // 4} - {0}):
                    sep = sep_engine.split(tree, r1, r2, delta)
                    splits += 1
                    bad = _separation_sound(tree, sep, r1, r2, set(nodes))
                    if bad:
                        structural_failures += 1
                        problems.extend(bad[:2])
                    stats = sep_engine.last_stats
                    tol = lemma2_bound(delta)
                    if stats["balance_error"] > tol:
                        balance_violations += 1
                        worst_balance_over_tol = max(
                            worst_balance_over_tol, stats["balance_error"] - tol
                        )
                    if max(stats["s1"] - stats["n_promotions"], stats["s2"]) > 4:
                        size_violations += 1
    return {
        "name": "flow_separator_contract",
        "params": {"families": list(FAMILIES), "sizes": list(sizes),
                   "seeds": len(list(seeds))},
        "n_splits": splits,
        "n_structural_failures": structural_failures,
        "n_balance_violations": balance_violations,
        "n_size_violations": size_violations,
        "worst_balance_over_tolerance": worst_balance_over_tol,
        "problems": problems[:5],
        "gate": "every split structurally sound; Lemma 2 violations documented",
        "gated": True,
        "passed": structural_failures == 0,
    }


def bench_flow_embedding_quality(smoke: bool) -> dict:
    """End-to-end flow-separator embeddings vs the paper separator."""
    heights = (3,) if smoke else (3, 4)
    per_family = {}
    ok = True
    for family in FAMILIES:
        worst = {"flow_dilation": 0, "paper_dilation": 0, "flow_load": 0}
        for height in heights:
            tree = make_tree(family, theorem1_guest_size(height), seed=0)
            flow = theorem1_embedding(tree, separator="flow").embedding.report()
            paper = theorem1_embedding(tree).embedding.report()
            worst["flow_dilation"] = max(worst["flow_dilation"], flow.dilation)
            worst["paper_dilation"] = max(worst["paper_dilation"], paper.dilation)
            worst["flow_load"] = max(worst["flow_load"], flow.load_factor)
            if flow.load_factor > 16:
                ok = False
        per_family[family] = worst
    return {
        "name": "flow_embedding_quality",
        "params": {"families": list(FAMILIES), "heights": list(heights)},
        "per_family": per_family,
        "gate": "flow-separator embeddings stay within the paper's load 16",
        "gated": True,
        "passed": ok,
    }


def bench_universal_degree(smoke: bool) -> dict:
    """Degree bound + bijective zero-defect embedding at the largest n."""
    t = 7 if smoke else LARGEST_T
    graph = UniversalGraph(t)
    degree = graph.max_degree()
    seeds = (0,) if smoke else (0, 1)
    worst_defect = worst_dilation = 0
    injective = True
    for seed in seeds:
        tree = make_tree("random", graph.n_nodes, seed=seed)
        emb, _ = embed_into_universal(tree, graph)
        worst_defect = max(worst_defect, len(spanning_defect(emb, graph)))
        injective = injective and len(set(emb.phi.values())) == len(emb.phi)
        worst_dilation = max(worst_dilation, emb.report().dilation)
    passed = (
        degree <= PAPER_DEGREE_BOUND
        and (smoke or degree == PAPER_DEGREE_BOUND)
        and worst_defect == 0
        and injective
    )
    return {
        "name": "universal_degree_and_spanning",
        "params": {"t": t, "seeds": list(seeds)},
        "n_vertices": graph.n_nodes,
        "max_degree": degree,
        "degree_bound": PAPER_DEGREE_BOUND,
        "spanning_defect": worst_defect,
        "injective": injective,
        "dilation": worst_dilation,
        "load": 1,
        "gate": f"degree <= {PAPER_DEGREE_BOUND} (== at t>=11), zero spanning "
                "defect, bijective lift",
        "gated": True,
        "passed": passed,
    }


def _route_on(t: int, program: str) -> dict:
    """Route one workload on G_n and on the underlying X(t-5) host."""
    graph = UniversalGraph(t)
    tree = make_tree("random", graph.n_nodes, seed=0)
    prog = PROGRAMS[program](tree)
    guest = simulate_on_guest(prog)
    emb, _ = embed_into_universal(tree, graph)
    uni = simulate_on_host(prog, emb)
    xres = theorem1_embedding(tree)
    xhost = simulate_on_host(prog, xres.embedding)
    return {
        "t": t,
        "n": graph.n_nodes,
        "n_messages": prog.n_messages,
        "guest_cycles": guest.total_cycles,
        "universal_cycles": uni.total_cycles,
        "xtree_cycles": xhost.total_cycles,
        "universal_slowdown": uni.total_cycles / max(guest.total_cycles, 1),
        "speedup_vs_xtree": xhost.total_cycles / max(uni.total_cycles, 1),
    }


def bench_universal_route_small() -> dict:
    """t=7 routing cycles, the same at every size (deterministic)."""
    rows = {prog: _route_on(7, prog) for prog in ("reduction", "leaf_gossip")}
    out = {
        "name": "universal_route_small",
        "params": {"t": 7, "programs": sorted(rows)},
        "gate": "workloads complete on G_112 through the vectorised engine",
        "gated": True,
        "passed": True,
    }
    for prog, row in rows.items():
        out[f"{prog}_universal_cycles"] = row["universal_cycles"]
        out[f"{prog}_xtree_cycles"] = row["xtree_cycles"]
        out[f"{prog}_slowdown"] = round(row["universal_slowdown"], 4)
    return out


def bench_universal_route_large() -> dict:
    """Routing at the largest feasible n (full runs only)."""
    t = LARGEST_T
    row = _route_on(t, "reduction")
    return {
        "name": "universal_route_large",
        "params": {"t": t, "program": "reduction"},
        "n_vertices": row["n"],
        "n_messages": row["n_messages"],
        "guest_cycles": row["guest_cycles"],
        "reduction_universal_cycles": row["universal_cycles"],
        "reduction_xtree_cycles": row["xtree_cycles"],
        "universal_slowdown": round(row["universal_slowdown"], 4),
        "speedup_vs_xtree": round(row["speedup_vs_xtree"], 4),
        "gate": "reduction completes on G_2032 through the vectorised engine",
        "gated": True,
        "passed": True,
    }


def run(smoke: bool = False) -> list:
    """The cases at smoke or full size, as callables for ``gates.py``."""
    cases = [
        partial(bench_paper_bit_identity, smoke),
        partial(bench_flow_contract, smoke),
        partial(bench_flow_embedding_quality, smoke),
        partial(bench_universal_degree, smoke),
        bench_universal_route_small,
    ]
    return cases if smoke else cases + [bench_universal_route_large]
