"""Baseline embeddings to compare the Theorem 1 construction against.

The paper's contribution is *constant* dilation at *constant* (here:
optimal) expansion for arbitrary binary trees.  The baselines quantify what
each ingredient buys:

``order_chunk_embedding``
    ignore structure entirely: pour the guest nodes, in BFS or DFS order,
    into the X-tree's vertices (16 per vertex, level order).  Load 16 and
    optimal expansion, but dilation grows with n — the "do nothing clever"
    floor.
``recursive_bisection_embedding``
    use the separator lemmas (so: the paper's tooling) but *without* the
    horizontal-edge ADJUST machinery: split the remainder in half at every
    vertex and recurse into the two subtrees independently.  Imbalances
    compound down the levels, so leftovers spill and dilation drifts up —
    this isolates precisely what the cross-edge balancing contributes.
``complete_tree_identity``
    the classic easy case: the *complete* binary tree B_r into X(r) (or
    B_r's vertices into the same addresses), dilation 1, load 1.  Prior
    work (BCHLR 1988) could do complete trees; the paper's point is
    arbitrary ones.
"""

from __future__ import annotations

from collections import deque

from ..networks.xtree import XAddr, XTree, xtree_size
from ..separators.lemma import lemma2_split
from ..trees.binary_tree import BinaryTree
from ..trees.traversal import bfs_order
from .context import complete_tree_into_xtree
from .embedding import Embedding
from .intervals import LayoutState

__all__ = [
    "order_chunk_embedding",
    "recursive_bisection_embedding",
    "complete_tree_identity",
]


def _sized_xtree(n: int, capacity: int, height: int | None) -> tuple[XTree, int]:
    if height is None:
        height = 0
        while capacity * xtree_size(height) < n:
            height += 1
    if capacity * xtree_size(height) < n:
        raise ValueError(f"{n} guests cannot fit X({height}) at load {capacity}")
    return XTree(height), height


def order_chunk_embedding(
    tree: BinaryTree,
    *,
    order: str = "bfs",
    capacity: int = 16,
    height: int | None = None,
) -> Embedding:
    """Pour guest nodes (in ``order``: "bfs" or "dfs") into host vertices.

    Host vertices are filled ``capacity`` at a time in level order.  This is
    the structure-oblivious baseline: load and expansion match Theorem 1,
    dilation does not.
    """
    xtree, _ = _sized_xtree(tree.n, capacity, height)
    if order == "bfs":
        seq = bfs_order(tree)
    elif order == "dfs":
        seq = tree.preorder()
    else:
        raise ValueError(f"order must be 'bfs' or 'dfs', got {order!r}")
    phi: dict[int, XAddr] = {}
    for i, v in enumerate(seq):
        phi[v] = xtree.node_at(i // capacity)
    return Embedding(tree, xtree, phi)


def recursive_bisection_embedding(
    tree: BinaryTree,
    *,
    capacity: int = 16,
    height: int | None = None,
) -> Embedding:
    """Separator-based top-down embedding *without* horizontal balancing.

    At every X-tree vertex: peel ``capacity`` nodes, split the remainder in
    two halves with Lemma 2, recurse left and right.  No cross-subtree
    correction ever happens, so the per-level imbalance compounds; whatever
    does not fit at the bottom spills to the nearest free slot, exactly like
    the main algorithm's final phase, and the spill distances are what this
    baseline pays for skipping ADJUST.
    """
    xtree, r = _sized_xtree(tree.n, capacity, height)
    state = LayoutState(tree, xtree, capacity)

    # Root blob: BFS prefix, as in the main algorithm's round 0.
    blob: list[int] = []
    queue = deque([tree.root])
    seen = {tree.root}
    while queue and len(blob) < capacity:
        v = queue.popleft()
        blob.append(v)
        for u in tree.children(v):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    for v in blob:
        state.place_node(v, (0, 0))
    rest = frozenset(tree.nodes()) - frozenset(blob)
    if rest:
        for piece in state.make_pieces(rest, (0, 0)):
            state.attach(piece)

    # Top-down: at each vertex, split the attached mass between children.
    for level in range(0, r):
        for idx in range(1 << level):
            alpha = (level, idx)
            c0, c1 = (level + 1, 2 * idx), (level + 1, 2 * idx + 1)
            target = capacity * (xtree_size(r - level - 1))  # per child subtree
            assigned = {c0: 0, c1: 0}
            for piece in sorted(
                list(state.pieces_at.get(alpha, ())), key=lambda p: p.size, reverse=True
            ):
                light = c0 if assigned[c0] <= assigned[c1] else c1
                room = target - assigned[light]
                if piece.size <= room or piece.size <= 1 or len(piece.designated) == 0:
                    state.move(piece, light)
                    assigned[light] += piece.size
                    continue
                if room < 1:
                    other = c1 if light == c0 else c0
                    state.move(piece, other)
                    assigned[other] += piece.size
                    continue
                r1 = piece.designated[0]
                r2 = piece.designated[-1]
                sep = lemma2_split(tree, r1, r2, room, universe=piece.nodes)
                state.detach(piece)
                for v in sorted(sep.s1):
                    state.place_node(v, _first_free(state, xtree, c1 if light == c0 else c0))
                for v in sorted(sep.s2):
                    state.place_node(v, _first_free(state, xtree, light))
                for side, leaf in ((sep.side1 - sep.s1, c1 if light == c0 else c0), (sep.side2 - sep.s2, light)):
                    if side:
                        for p in state.make_pieces(frozenset(side), leaf):
                            state.attach(p)
                assigned[light] += len(sep.side2)
                assigned[c1 if light == c0 else c0] += len(sep.side1)
            # fill the children on the next level by peeling
            for child in (c0, c1):
                _fill_greedy(state, child)
    _spill_leftovers(state, xtree)
    return Embedding(tree, xtree, state.place)


def _fill_greedy(state: LayoutState, addr: XAddr) -> None:
    while state.free(addr) > 0:
        pieces = [p for p in state.pieces_at.get(addr, ()) if len(p.designated) <= state.free(addr)]
        if not pieces:
            break
        piece = max(pieces, key=lambda p: p.size)
        before = state.free(addr)
        state.peel(piece, before, addr)
        if state.free(addr) == before:
            break


def _first_free(state: LayoutState, xtree: XTree, start: XAddr) -> XAddr:
    if state.free(start) > 0:
        return start
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in xtree.neighbors(v):
            if u not in seen:
                if state.free(u) > 0:
                    return u
                seen.add(u)
                queue.append(u)
    raise RuntimeError("host full")


def _spill_leftovers(state: LayoutState, xtree: XTree) -> None:
    for leaf in sorted(list(state.pieces_at)):
        for piece in list(state.pieces_at.get(leaf, ())):
            state.detach(piece)
            order: list[int] = []
            seen = set(piece.designated)
            queue = deque(piece.designated)
            while queue:
                v = queue.popleft()
                order.append(v)
                for u in state.tree.neighbors(v):
                    if u in piece.nodes and u not in seen:
                        seen.add(u)
                        queue.append(u)
            for v in order:
                anchors = [state.place[u] for u in state.tree.neighbors(v) if u in state.place]
                anchor = anchors[0] if anchors else piece.leaf
                state.place_node(v, _first_free(state, xtree, anchor))


def complete_tree_identity(r: int) -> Embedding:
    """B_r into X(r) by identity on addresses: dilation 1, load 1.

    :func:`~repro.core.context.complete_tree_into_xtree` as an
    :class:`Embedding`: the guest is the complete binary tree labelled in
    heap order, so guest node ``i`` is host vertex ``node_at(i)``.
    """
    return Embedding(*complete_tree_into_xtree(r))
