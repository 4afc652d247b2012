"""Online (dynamically growing) tree embedding — extension beyond the paper.

The paper's introduction anchors on Bhatt-Chung-Leighton-Rosenberg's
"Optimal Simulation of Tree Machines" [1], where the binary tree is a
*tree machine* that grows during execution: nodes spawn children one at a
time and the host must place each new node immediately, without knowing the
future shape.  Theorem 1 is the offline counterpart; this module adds the
online setting on the X-tree host so the two can be compared (experiment
E13):

* :class:`OnlineXTreeEmbedder` — greedy placement with local slack: each
  new node goes to the free slot nearest its parent's host vertex, with a
  bounded *lookahead reservation* that keeps a few slots per vertex free
  for future children (tunable).
* The quality question is how the greedy dilation degrades relative to the
  offline bound of 3 — the classic price of irrevocability.  The benchmark
  records the dilation growth across families and sizes; re-embedding
  offline at the end ("repacking") recovers dilation 3 at the cost of
  migrating almost every node, and :meth:`OnlineXTreeEmbedder.migration_cost`
  quantifies that trade.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..networks.xtree import XAddr, XTree, xtree_size
from ..trees.binary_tree import BinaryTree
from .embedding import Embedding
from .xtree_embed import embed_binary_tree

__all__ = ["OnlineXTreeEmbedder", "OnlineResult", "replay_online"]


@dataclass
class OnlineResult:
    """Outcome of replaying a growth sequence online."""

    embedding: Embedding
    #: host distance parent->child at the moment each node was placed
    placement_distances: list[int]
    #: guests that would have to move to reach the offline (Theorem 1) layout
    migration_cost: int | None = None

    @property
    def max_placement_distance(self) -> int:
        return max(self.placement_distances, default=0)


class OnlineXTreeEmbedder:
    """Greedy online placement of a growing binary tree on X(r).

    ``reserve`` slots per vertex are kept free while any non-full vertex
    exists elsewhere, so late arrivals near a hot region still find room
    locally — a simple damping of the greedy policy's worst case.
    """

    def __init__(self, height: int, capacity: int = 16, reserve: int = 2):
        if height < 0:
            raise ValueError(f"height must be non-negative, got {height}")
        if not 0 <= reserve < capacity:
            raise ValueError(f"reserve must be in [0, capacity), got {reserve}")
        self.xtree = XTree(height)
        self.capacity = capacity
        self.reserve = reserve
        self.place: dict[int, XAddr] = {}
        self.load: dict[XAddr, int] = {}
        self._n_full_budget = capacity * xtree_size(height)

    @property
    def n_placed(self) -> int:
        return len(self.place)

    def _free(self, addr: XAddr, *, soft: bool) -> bool:
        used = self.load.get(addr, 0)
        limit = self.capacity - (self.reserve if soft else 0)
        return used < limit

    def add_node(self, node: int, parent: int | None) -> XAddr:
        """Place a newly spawned ``node`` (child of ``parent``) irrevocably.

        Roots go to the X-tree root.  Children go to the closest vertex to
        their parent's image with soft capacity available; if the whole
        network is soft-full the reserve is released (hard capacity).
        Returns the chosen vertex.
        """
        if node in self.place:
            raise ValueError(f"node {node} already placed")
        if len(self.place) >= self._n_full_budget:
            raise RuntimeError("host is full")
        if parent is None:
            start: XAddr = (0, 0)
        else:
            start = self.place[parent]
        addr = self._nearest(start, soft=True)
        if addr is None:
            addr = self._nearest(start, soft=False)
        assert addr is not None  # budget check above guarantees a slot
        self.place[node] = addr
        self.load[addr] = self.load.get(addr, 0) + 1
        return addr

    def _nearest(self, start: XAddr, *, soft: bool) -> XAddr | None:
        if self._free(start, soft=soft):
            return start
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in self.xtree.neighbors(v):
                if u in seen:
                    continue
                if self._free(u, soft=soft):
                    return u
                seen.add(u)
                queue.append(u)
        return None

    def to_embedding(self, tree: BinaryTree) -> Embedding:
        """Freeze the current placement as an :class:`Embedding` of ``tree``."""
        return Embedding(tree, self.xtree, dict(self.place))


def replay_online(
    tree: BinaryTree,
    height: int,
    *,
    capacity: int = 16,
    reserve: int = 2,
    compare_offline: bool = False,
) -> OnlineResult:
    """Grow ``tree`` node by node (BFS spawn order) on X(height).

    BFS order is the natural spawn order of a tree machine: a node exists
    before its children.  With ``compare_offline`` the Theorem 1 layout is
    also computed and the number of guests placed differently (the migration
    cost of repacking) reported.
    """
    if capacity * xtree_size(height) < tree.n:
        raise ValueError(f"{tree.n} nodes cannot fit X({height}) at load {capacity}")
    embedder = OnlineXTreeEmbedder(height, capacity=capacity, reserve=reserve)
    distances: list[int] = []
    order = deque([tree.root])
    while order:
        v = order.popleft()
        p = tree.parent(v)
        addr = embedder.add_node(v, p)
        if p is not None:
            distances.append(embedder.xtree.distance(embedder.place[p], addr))
        order.extend(tree.children(v))
    emb = embedder.to_embedding(tree)
    migration = None
    if compare_offline:
        offline = embed_binary_tree(tree, height=height, capacity=capacity)
        migration = sum(
            1 for v in tree.nodes() if offline.embedding.phi[v] != emb.phi[v]
        )
    return OnlineResult(emb, distances, migration)
