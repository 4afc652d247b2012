"""Experiment harness: regenerates every table of EXPERIMENTS.md.

The paper is a theory extended abstract with no measurement tables, so the
"tables and figures" to reproduce are its theorem/lemma/figure claims
(DESIGN.md section 3, experiments E1-E13).  Each ``experiment_*`` function
returns a markdown table of paper-bound vs measured values; ``main()``
writes them all to stdout (and is what produced EXPERIMENTS.md).

Run directly:  ``python benchmarks/experiments.py [--fast]``
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.analysis import markdown_table
from repro.core import (
    UniversalGraph,
    complete_tree_identity,
    condition_3prime_defects,
    embed_into_universal,
    injective_xtree_embedding,
    lemma1_bound,
    lemma1_split,
    lemma2_bound,
    lemma2_split,
    order_chunk_embedding,
    recursive_bisection_embedding,
    spanning_defect,
    theorem1_embedding,
    theorem3_embedding,
    verify_figure1,
    verify_figure2,
    verify_inorder,
    verify_lemma3,
)
from repro.networks import XTree
from repro.simulate import PROGRAMS, simulate_on_guest, simulate_on_host
from repro.trees import FAMILIES, make_tree, theorem1_guest_size, theorem3_guest_size

BENCH_FAMILIES = (
    "complete", "path", "caterpillar", "random", "remy",
    "skewed", "zigzag", "broom", "fibonacci",
)


def experiment_e1_theorem1(max_r: int = 6, seeds=(0, 1, 2)) -> str:
    """E1: Theorem 1 — dilation/load/expansion per family and height."""
    rows = []
    for r in range(1, max_r + 1):
        n = theorem1_guest_size(r)
        for fam in BENCH_FAMILIES:
            dils, spills = [], []
            for s in seeds:
                res = theorem1_embedding(make_tree(fam, n, seed=s))
                rep = res.embedding.report()
                assert rep.load_factor == 16
                dils.append(rep.dilation)
                spills.append(res.stats.final_spill_count)
            rows.append(
                [r, n, fam, 3, max(dils), f"{statistics.fmean(dils):.1f}", 16, 16, max(spills)]
            )
    return markdown_table(
        ["r", "n", "family", "paper dil", "max dil", "mean dil", "paper load", "load", "spills"],
        rows,
    )


def experiment_e2_theorem2(max_r: int = 5, seeds=(0, 1)) -> str:
    """E2: Theorem 2 — injective dilation vs the bound 11."""
    rows = []
    for r in range(1, max_r + 1):
        n = theorem1_guest_size(r)
        for fam in ("path", "random", "remy", "caterpillar"):
            worst = 0
            for s in seeds:
                emb = injective_xtree_embedding(make_tree(fam, n, seed=s))
                assert emb.is_injective()
                worst = max(worst, emb.dilation())
            rows.append([r, n, fam, 11, worst, f"{(2 ** (r + 5) - 1) / n:.2f}"])
    return markdown_table(["r", "n", "family", "paper dil", "max dil", "expansion"], rows)


def experiment_e3_theorem3(max_r: int = 6, seeds=(0, 1)) -> str:
    """E3: Theorem 3 — hypercube dilation/load vs bounds 4/16."""
    rows = []
    for r in range(2, max_r + 1):
        n = theorem3_guest_size(r)
        for fam in ("path", "random", "remy"):
            worst_d, worst_l = 0, 0
            for s in seeds:
                emb = theorem3_embedding(make_tree(fam, n, seed=s))
                worst_d = max(worst_d, emb.dilation())
                worst_l = max(worst_l, emb.load_factor())
            rows.append([r, n, fam, 4, worst_d, 16, worst_l])
    return markdown_table(
        ["r (Q_r)", "n", "family", "paper dil", "max dil", "paper load", "load"], rows
    )


def experiment_e4_theorem4(ts=(5, 7, 9, 11), seeds=(0, 1)) -> str:
    """E4: Theorem 4 — universal graph degree and spanning defects."""
    rows = []
    for t in ts:
        g = UniversalGraph(t)
        n = g.n_nodes
        worst = 0
        for fam in ("random", "remy", "path"):
            for s in seeds:
                emb, _ = embed_into_universal(make_tree(fam, n, seed=s), g)
                worst = max(worst, len(spanning_defect(emb, g)))
        rows.append([t, n, 415, g.max_degree(), worst])
    return markdown_table(
        ["t", "n=2^t-16", "paper degree", "G_n degree", "N-mode defects"],
        rows,
    )


def experiment_e5_separators(sizes=(100, 1000, 10000), trials: int = 60) -> str:
    """E5: Lemma 1/2 — measured size error vs the 1/3 and 1/9 bounds."""
    import random as _random

    rows = []
    rng = _random.Random(0)
    for n in sizes:
        for lemma, splitter, bound in (
            ("Lemma 1", lemma1_split, lemma1_bound),
            ("Lemma 2", lemma2_split, lemma2_bound),
        ):
            max_ratio = 0.0
            promotions = 0
            for _ in range(trials):
                fam = rng.choice(["random", "remy", "skewed", "caterpillar"])
                tree = make_tree(fam, n, seed=rng.randrange(10**6))
                while True:
                    r1 = rng.randrange(n)
                    if tree.degree(r1) <= 2:
                        break
                r2 = rng.randrange(n)
                hi = (3 * n - 1) // 4 if lemma == "Lemma 1" else n - 1
                delta = rng.randint(1, hi)
                sep = splitter(tree, r1, r2, delta)
                err = abs(sep.n2 - delta)
                b = bound(delta)
                max_ratio = max(max_ratio, err / b if b else float(err > 0))
                promotions += sep.n_promotions
            rows.append([n, lemma, "err <= bound", f"{max_ratio:.2f}", promotions])
    return markdown_table(
        ["n", "lemma", "paper", "max err/bound (<=1)", "repair promotions"], rows
    )


def experiment_e6_lemma3(max_r: int = 8) -> str:
    """E6: Lemma 3 and inorder — distance excess vs the +1 bound."""
    rows = []
    for r in range(1, max_r + 1):
        rep3 = verify_lemma3(r, samples=400)
        repio = verify_inorder(r)
        rows.append(
            [
                r,
                rep3.measured["max_distance_excess"],
                "PASS" if rep3.passed else "MISS",
                repio.measured["dilation"],
                repio.measured["max_distance_excess"],
                "PASS" if repio.passed else "MISS",
            ]
        )
    return markdown_table(
        ["r", "Lemma3 excess (<=1)", "Lemma3", "inorder dil (<=2)", "inorder excess (<=1)", "inorder"],
        rows,
    )


def experiment_e7_figure1(max_r: int = 12) -> str:
    """E7: Figure 1 — X(r) structural counts."""
    rows = []
    for r in range(0, max_r + 1, 2):
        rep = verify_figure1(r)
        rows.append(
            [
                r,
                rep.measured["nodes"],
                rep.measured["edges"],
                rep.measured["max_degree"],
                "PASS" if rep.passed else "MISS",
            ]
        )
    return markdown_table(["r", "nodes=2^(r+1)-1", "edges=2^(r+2)-r-4", "max degree (<=5)", "status"], rows)


def experiment_e8_figure2(max_r: int = 9) -> str:
    """E8: Figure 2 — N(alpha) neighbourhood constants."""
    rows = []
    for r in range(1, max_r + 1, 2):
        rep = verify_figure2(r)
        rows.append(
            [
                r,
                rep.measured["out"],
                rep.measured["asymmetric_in"],
                rep.measured["degree_415"],
                "PASS" if rep.passed else "MISS",
            ]
        )
    return markdown_table(
        ["r", "max |N(a)-{a}| (<=20)", "max in-extra (<=5)", "implied degree (<=415)", "status"], rows
    )


def experiment_e9_baselines(max_r: int = 6, seed: int = 0) -> str:
    """E9: Theorem 1 vs structure-oblivious and bisection baselines."""
    rows = []
    for r in range(2, max_r + 1):
        n = theorem1_guest_size(r)
        for fam in ("path", "caterpillar", "random"):
            tree = make_tree(fam, n, seed=seed)
            t1 = theorem1_embedding(tree).embedding.dilation()
            chunk = order_chunk_embedding(tree).dilation()
            rb = recursive_bisection_embedding(tree).dilation()
            rows.append([r, n, fam, t1, rb, chunk])
    ident = complete_tree_identity(4).dilation()
    rows.append(["-", 31, "complete (B_4 id, load 1)", ident, "-", "-"])
    return markdown_table(
        ["r", "n", "family", "Theorem 1 dil", "recursive bisection dil", "bfs-chunk dil"], rows
    )


def experiment_e10_simulation(r: int = 4, seed: int = 0) -> str:
    """E10: end-to-end slowdown of tree programs on X(r)."""
    n = theorem1_guest_size(r)
    rows = []
    for fam in ("random", "caterpillar"):
        tree = make_tree(fam, n, seed=seed)
        good = theorem1_embedding(tree).embedding
        bad = order_chunk_embedding(tree)
        for name in sorted(PROGRAMS):
            prog = PROGRAMS[name](tree)
            ref = simulate_on_guest(prog).total_cycles
            h_good = simulate_on_host(prog, good).total_cycles
            h_pipe = simulate_on_host(prog, good, barrier=False).total_cycles
            h_bad = simulate_on_host(prog, bad).total_cycles
            rows.append(
                [
                    fam,
                    name,
                    prog.n_messages,
                    ref,
                    h_good,
                    f"{h_good / max(ref, 1):.2f}",
                    h_pipe,
                    h_bad,
                    f"{h_bad / max(ref, 1):.2f}",
                ]
            )
    return markdown_table(
        [
            "family",
            "program",
            "msgs",
            "guest cycles",
            "Thm1 BSP",
            "slowdown",
            "Thm1 pipelined",
            "chunk BSP",
            "slowdown",
        ],
        rows,
    )


def experiment_e11_scaling(max_r: int = 9, seed: int = 0) -> str:
    """E11: construction cost of the Theorem 1 embedding."""
    rows = []
    for r in range(3, max_r + 1):
        n = theorem1_guest_size(r)
        tree = make_tree("random", n, seed=seed)
        t0 = time.perf_counter()
        res = theorem1_embedding(tree)
        el = time.perf_counter() - t0
        rows.append([r, n, f"{el * 1000:.1f}", f"{el / n * 1e6:.2f}", res.embedding.dilation()])
    return markdown_table(["r", "n", "time (ms)", "us per node", "dilation"], rows)


def experiment_e1_depth(rs=(8, 9, 10), seeds=(0,)) -> str:
    """E1 (depth extension): Theorem 1 stays exact far beyond paper scale."""
    rows = []
    for r in rs:
        n = theorem1_guest_size(r)
        worst = 0
        worst_defects = 0
        for fam in BENCH_FAMILIES:
            for s in seeds:
                res = theorem1_embedding(make_tree(fam, n, seed=s))
                worst = max(worst, res.embedding.dilation())
                worst_defects = max(
                    worst_defects, len(condition_3prime_defects(res.embedding))
                )
                assert res.embedding.load_factor() == 16
        rows.append([r, n, 3, worst, 0, worst_defects])
    return markdown_table(
        ["r", "n", "paper dil", "max dil (8 families)", "paper (3') defects", "max defects"],
        rows,
    )


def experiment_ablation(r: int = 7) -> str:
    """Ablation: contribution of each algorithm ingredient (EmbedConfig)."""
    from repro.core.xtree_embed import EmbedConfig

    def sweep(config, depth):
        worst_dil = defects = spills = 0
        for fam in ("path", "caterpillar", "remy", "zigzag"):
            res = theorem1_embedding(
                make_tree(fam, theorem1_guest_size(depth), seed=5), config=config
            )
            worst_dil = max(worst_dil, res.embedding.dilation())
            defects += len(condition_3prime_defects(res.embedding))
            spills += res.stats.final_spill_count
        return worst_dil, defects, spills

    rows = []
    variants = [
        ("full algorithm (default)", EmbedConfig(), r),
        (
            "no SPLIT fine-tuning (balance_children=False)",
            EmbedConfig(balance_children=False),
            r,
        ),
        # the sideways failure needs an extra round of drift to surface
        (
            "sideways balance moves allowed (r=9)",
            EmbedConfig(sideways_balance_moves=True, adjust_sigma_filter=False),
            9,
        ),
        ("horizontal neighbour fill on", EmbedConfig(neighbor_fill=True), r),
    ]
    for label, cfg, depth in variants:
        dil, defects, spills = sweep(cfg, depth)
        rows.append([label, depth, dil, defects, spills])
    return markdown_table(
        ["variant", "r", "worst dilation", "(3') defects", "final spills"], rows
    )


def experiment_e10b_capacity(r: int = 4, seed: int = 0) -> str:
    """E10b: congestion relief — link capacity sweep under dense traffic.

    The load-16 embedding funnels 16 guests' edges through each host
    vertex's <= 5 links; all-edges-at-once traffic therefore queues.  Wider
    links (more messages per link per cycle) relieve exactly that queueing,
    converging towards the pure-dilation cost.
    """
    from repro.simulate import neighbor_exchange_program

    n = theorem1_guest_size(r)
    tree = make_tree("random", n, seed=seed)
    emb = theorem1_embedding(tree).embedding
    prog = neighbor_exchange_program(tree, rounds=2)
    rows = []
    for cap in (1, 2, 4, 8, 16):
        stats = simulate_on_host(prog, emb, link_capacity=cap)
        rows.append(
            [cap, stats.total_cycles, stats.max_queue, f"{stats.slowdown:.1f}"]
        )
    return markdown_table(
        ["link capacity", "total cycles", "max queue", "slowdown"], rows
    )


def experiment_e13_online(max_r: int = 7, seed: int = 1) -> str:
    """E13 (extension): online (tree-machine) placement vs offline Theorem 1.

    Extension of the paper towards BCLR'86's dynamic tree machines: nodes
    spawn one at a time and must be placed irrevocably.
    """
    from repro.core.online import replay_online

    rows = []
    for r in range(3, max_r + 1):
        n = theorem1_guest_size(r)
        for fam in ("random", "path", "caterpillar"):
            tree = make_tree(fam, n, seed=seed)
            online = replay_online(tree, r, compare_offline=(r <= 6))
            offline = theorem1_embedding(tree).embedding.dilation()
            rows.append(
                [
                    r,
                    n,
                    fam,
                    offline,
                    online.embedding.dilation(),
                    online.max_placement_distance,
                    online.migration_cost if online.migration_cost is not None else "-",
                ]
            )
    return markdown_table(
        [
            "r",
            "n",
            "family",
            "offline dil (Thm 1)",
            "online dil",
            "max placement dist",
            "repack migrations",
        ],
        rows,
    )


def experiment_3prime_defects(max_r: int = 7, seeds=(0, 1)) -> str:
    """Supplement: measured condition-(3') defects (the Theorem 4 gap)."""
    rows = []
    for r in range(2, max_r + 1):
        n = theorem1_guest_size(r)
        worst = 0
        total_edges = n - 1
        for fam in BENCH_FAMILIES:
            for s in seeds:
                res = theorem1_embedding(make_tree(fam, n, seed=s))
                worst = max(worst, len(condition_3prime_defects(res.embedding)))
        rows.append([r, n, 0, worst, f"{worst / total_edges:.4%}"])
    return markdown_table(["r", "n", "paper defects", "max defects", "worst fraction of edges"], rows)


ALL_EXPERIMENTS = [
    ("E1: Theorem 1 (dilation 3, load 16, optimal expansion)", experiment_e1_theorem1),
    ("E1b: Theorem 1 at depth (r = 8..10, all families)", experiment_e1_depth),
    ("E2: Theorem 2 (injective, dilation 11)", experiment_e2_theorem2),
    ("E3: Theorem 3 (hypercube, dilation 4, load 16)", experiment_e3_theorem3),
    ("E4: Theorem 4 (universal graph, degree 415)", experiment_e4_theorem4),
    ("E5: Separator lemmas (1/3 and 1/9 bounds)", experiment_e5_separators),
    ("E6: Lemma 3 + inorder embedding (distance +1)", experiment_e6_lemma3),
    ("E7: Figure 1 (X-tree structure)", experiment_e7_figure1),
    ("E8: Figure 2 (N(alpha) bounds)", experiment_e8_figure2),
    ("E9: Baseline comparison", experiment_e9_baselines),
    ("E10: Simulated program slowdown", experiment_e10_simulation),
    ("E10b: Congestion relief under link-capacity sweep", experiment_e10b_capacity),
    ("E11: Construction scaling", experiment_e11_scaling),
    ("E12: Ablation of the algorithm ingredients", experiment_ablation),
    ("E13 (extension): online tree-machine placement", experiment_e13_online),
    ("Supplement: condition (3') defects", experiment_3prime_defects),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller sweeps")
    parser.add_argument("--only", help="substring filter on experiment titles")
    args = parser.parse_args(argv)
    for title, fn in ALL_EXPERIMENTS:
        if args.only and args.only.lower() not in title.lower():
            continue
        kwargs = {}
        if args.fast:
            if fn is experiment_e1_theorem1:
                kwargs = {"max_r": 4, "seeds": (0,)}
            elif fn is experiment_e11_scaling:
                kwargs = {"max_r": 7}
            elif fn is experiment_e4_theorem4:
                kwargs = {"ts": (5, 7, 9), "seeds": (0,)}
            elif fn is experiment_e5_separators:
                kwargs = {"sizes": (100, 1000), "trials": 25}
            elif fn is experiment_3prime_defects:
                kwargs = {"max_r": 5, "seeds": (0,)}
        t0 = time.perf_counter()
        table = fn(**kwargs)
        el = time.perf_counter() - t0
        print(f"\n## {title}\n")
        print(table)
        print(f"\n({el:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
