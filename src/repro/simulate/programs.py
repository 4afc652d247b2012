"""Guest tree programs: superstep communication patterns on a binary tree.

A :class:`TreeProgram` is a sequence of *supersteps*; each superstep is a
list of guest-edge communications ``(src, dst)`` (guest node labels).  On
the guest's own topology every superstep costs one cycle (every message
travels exactly one tree edge and each directed edge appears at most once
per superstep in these patterns); on a host network, through an embedding,
the cost per superstep is what the simulator measures — the slowdown the
paper's dilation/congestion bounds control.

The workloads mirror the paper's motivation ("binary trees reflect ... the
type of program structure found in common divide-and-conquer algorithms"):

``reduction``        leaves-to-root combine (one wave per tree level)
``broadcast``        root-to-leaves distribution
``prefix_sum``       up-sweep then down-sweep (Blelloch scan shape)
``neighbor_exchange`` every tree edge exchanges both ways, ``rounds`` times
``leaf_gossip``      each leaf sends to the root, all at once (hot path)
``hot_spot``         every node bombards a few hot nodes, ``rounds`` times
``permutation``      random guest permutation traffic, fresh each round

The last two are *adversarial*: their traffic is not confined to tree
edges, so through an embedding many equal-length host routes exist and a
tie-breaking policy decides how badly flows collide — the workloads the
congestion-aware :class:`~repro.simulate.routing.AdaptiveRouter` exists
for (``benchmarks/bench_router.py`` measures the makespan delta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from ..trees.binary_tree import BinaryTree

__all__ = [
    "TreeProgram",
    "reduction_program",
    "broadcast_program",
    "prefix_sum_program",
    "neighbor_exchange_program",
    "leaf_gossip_program",
    "hot_spot_program",
    "permutation_program",
    "PROGRAMS",
]


@dataclass(frozen=True)
class TreeProgram:
    """A named list of supersteps over a guest tree."""

    name: str
    tree: BinaryTree
    supersteps: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_supersteps(self) -> int:
        return len(self.supersteps)

    @cached_property
    def n_messages(self) -> int:
        # counted once: the runtime reads it before every superstep
        return sum(len(s) for s in self.supersteps)

    def ideal_cycles(self) -> int:
        """Cycles on the guest's own topology: one per (non-empty) superstep.

        Each communication crosses exactly one tree edge, and within one
        superstep no directed tree edge is used twice in these patterns, so
        a unit-capacity guest network finishes each superstep in one cycle.
        """
        return sum(1 for s in self.supersteps if s)


def _heights(tree: BinaryTree) -> list[int]:
    """Height of each node (max distance to a descendant leaf)."""
    h = [0] * tree.n
    for v in reversed(tree.preorder()):
        kids = tree.children(v)
        if kids:
            h[v] = 1 + max(h[c] for c in kids)
    return h


def reduction_program(tree: BinaryTree) -> TreeProgram:
    """Leaves-to-root combine: nodes of height ``k`` send to their parent in
    superstep ``k`` (after their own subtree finished)."""
    heights = _heights(tree)
    depth_of = max(heights)
    steps: list[list[tuple[int, int]]] = [[] for _ in range(depth_of + 1)]
    for v in tree.nodes():
        p = tree.parent(v)
        if p is not None:
            steps[heights[v]].append((v, p))
    return TreeProgram("reduction", tree, tuple(tuple(s) for s in steps if s))


def broadcast_program(tree: BinaryTree) -> TreeProgram:
    """Root-to-leaves: depth-``d`` nodes send to their children in step ``d``."""
    depths = tree.depths()
    height = max(depths)
    steps: list[list[tuple[int, int]]] = [[] for _ in range(height + 1)]
    for v in tree.nodes():
        for c in tree.children(v):
            steps[depths[v]].append((v, c))
    return TreeProgram("broadcast", tree, tuple(tuple(s) for s in steps if s))


def prefix_sum_program(tree: BinaryTree) -> TreeProgram:
    """Blelloch-style scan: a reduction up-sweep then a broadcast down-sweep."""
    up = reduction_program(tree)
    down = broadcast_program(tree)
    return TreeProgram("prefix_sum", tree, up.supersteps + down.supersteps)


def neighbor_exchange_program(tree: BinaryTree, rounds: int = 4) -> TreeProgram:
    """Every tree edge exchanged in both directions, ``rounds`` times.

    The densest per-superstep pattern a tree program can have; it exposes
    host-link congestion that single-wave programs never reach.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    both = tuple((u, v) for u, v in tree.edges()) + tuple((v, u) for u, v in tree.edges())
    return TreeProgram("neighbor_exchange", tree, tuple(both for _ in range(rounds)))


def leaf_gossip_program(tree: BinaryTree) -> TreeProgram:
    """Every leaf talks to the root simultaneously (non-edge traffic).

    Unlike the others this pattern is *not* confined to tree edges, so even
    the guest's own topology needs several cycles; used to compare hosts on
    routed (multi-hop) traffic rather than pure dilation.
    """
    leaves = [v for v in tree.nodes() if tree.is_leaf(v)]
    return TreeProgram(
        "leaf_gossip", tree, ((tuple((leaf, tree.root) for leaf in leaves)),)
    )


def hot_spot_program(
    tree: BinaryTree, rounds: int = 2, n_hot: int = 1, seed: int = 0
) -> TreeProgram:
    """Every non-hot node sends to a hot node each round (all at once).

    The classic hot-spot stress: ``n_hot`` destinations (drawn uniformly
    with ``seed``) absorb a message from every other node in every
    superstep.  Traffic is heavily multi-hop, so on a host the
    shortest-path ties near the hot images decide whether the surrounding
    links share the load or a single link serialises it.  (When a hot
    image lands on a degree-limited host corner — e.g. an X-tree leaf —
    the *terminal* links bound the makespan and no routing policy can
    help; interior images are where tie-breaking matters.)
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 1 <= n_hot <= tree.n:
        raise ValueError(f"n_hot must be in [1, {tree.n}], got {n_hot}")
    rng = random.Random(seed)
    hot = rng.sample(list(tree.nodes()), n_hot)
    step = tuple(
        (v, hot[i % n_hot])
        for i, v in enumerate(v for v in tree.nodes() if v not in set(hot))
    )
    return TreeProgram("hot_spot", tree, tuple(step for _ in range(rounds)))


def permutation_program(tree: BinaryTree, rounds: int = 2, seed: int = 0) -> TreeProgram:
    """Random permutation traffic: each round every node sends to a
    distinct partner (a fresh derangement-ish permutation per round).

    The standard adversarial benchmark for oblivious routing: uniformly
    spread endpoints, but each round's full permutation in flight at once,
    so equal-length host routes contend wherever the tie-break collides.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    rng = random.Random(seed)
    nodes = list(tree.nodes())
    steps = []
    for _ in range(rounds):
        targets = nodes[:]
        rng.shuffle(targets)
        steps.append(tuple((v, t) for v, t in zip(nodes, targets) if v != t))
    return TreeProgram("permutation", tree, tuple(steps))


#: registry for the benchmark harness
PROGRAMS = {
    "reduction": reduction_program,
    "broadcast": broadcast_program,
    "prefix_sum": prefix_sum_program,
    "neighbor_exchange": neighbor_exchange_program,
    "leaf_gossip": leaf_gossip_program,
    "hot_spot": hot_spot_program,
    "permutation": permutation_program,
}
