"""The tree-separation lemmas of section 2 (Lemma 1 and Lemma 2).

Both lemmas take a binary tree ``T`` (or a *piece* of a larger tree,
restricted to a node universe), two designated nodes ``r1, r2`` (possibly
equal), and a target ``delta``, and split ``T`` into two forests by removing
a few edges, such that:

* the removed ("cut") edges run between two small node sets ``S1`` and
  ``S2`` that will be *laid out now* by the embedding algorithm;
* side 2 has roughly ``delta`` nodes — within ``floor((delta+1)/3)`` for
  Lemma 1 (one application of the heavy-subtree walk ``find1``) and within
  ``floor((delta+4)/9)`` for Lemma 2 (a correcting second application);
* the designated nodes land in ``S1 | S2``;
* each ``S_i`` is *collinear* in its side: every leftover component hangs
  off at most two ``S_i`` nodes, so the components remain "intervals" with
  at most two designated nodes each.

The published abstract spells out ``find1``/``find2`` and the case split of
Lemma 2's proof but elides some sub-cases; the reconstruction here follows
the proof text and is property-tested against the stated postconditions
(see ``tests/test_separators.py``).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass

from ..trees.binary_tree import BinaryTree

__all__ = ["Separation", "lemma1_split", "lemma2_split", "lemma1_bound", "lemma2_bound"]


def lemma1_bound(delta: int) -> int:
    """Lemma 1's size tolerance: ``floor((delta + 1) / 3)``."""
    return (delta + 1) // 3


def lemma2_bound(delta: int) -> int:
    """Lemma 2's size tolerance: ``floor((delta + 4) / 9)``."""
    return (delta + 4) // 9


@dataclass(frozen=True)
class Separation:
    """Result of splitting a tree piece into two forests.

    ``cut_edges`` are ``(a, b)`` pairs with ``a`` on side 1 and ``b`` on
    side 2; every endpoint belongs to the matching ``s`` set.  ``side2`` is
    the side whose size approximates the requested ``delta``.

    ``n_promotions`` counts collinearity repairs (see
    :func:`_repair_collinearity`): extra nodes promoted into an ``S`` set
    beyond the construction's nominal 4.  It is 0 in the overwhelming
    majority of splits; the embedding's slot accounting absorbs the rest.
    """

    side1: frozenset[int]
    side2: frozenset[int]
    s1: frozenset[int]
    s2: frozenset[int]
    cut_edges: tuple[tuple[int, int], ...]
    n_promotions: int = 0

    def swapped(self) -> Separation:
        """Interchange the roles of the two sides (used by Lemma 2)."""
        return Separation(
            side1=self.side2,
            side2=self.side1,
            s1=self.s2,
            s2=self.s1,
            cut_edges=tuple((b, a) for a, b in self.cut_edges),
            n_promotions=self.n_promotions,
        )

    @property
    def n2(self) -> int:
        """Size of side 2 (the ~delta side)."""
        return len(self.side2)


class _Piece:
    """A piece of a tree rooted at a chosen node, restricted to a universe.

    Precomputes parents, children and subtree sizes within the universe;
    all separator logic runs on these.
    """

    __slots__ = ("tree", "root", "parent", "children", "size", "order")

    def __init__(self, tree: BinaryTree, universe: Collection[int], root: int):
        self.tree = tree
        self.root = root
        uni = universe if isinstance(universe, (set, frozenset)) else set(universe)
        if root not in uni:
            raise ValueError(f"root {root} not in the piece universe")
        adj = tree.adjacency
        parent: dict[int, int | None] = {root: None}
        children: dict[int, list[int]] = {}
        order: list[int] = []
        stack = [root]
        push = stack.append
        while stack:
            v = stack.pop()
            order.append(v)
            above = parent[v]
            kids = []
            for u in adj[v]:
                if u != above and u in uni:
                    kids.append(u)
                    parent[u] = v
                    push(u)
            children[v] = kids
        if len(order) != len(uni):
            raise ValueError("piece universe is not connected")
        self.parent = parent
        self.children = children
        self.order = order
        size = dict.fromkeys(order, 1)
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                size[p] += size[v]
        self.size = size

    @property
    def n(self) -> int:
        return len(self.order)

    def subtree_nodes(self, u: int) -> set[int]:
        """All nodes of the subtree rooted at ``u`` within the piece."""
        out = set()
        stack = [u]
        while stack:
            v = stack.pop()
            out.add(v)
            stack.extend(self.children[v])
        return out

    def path_from_root(self, v: int) -> list[int]:
        """Root-to-``v`` path."""
        path = []
        cur: int | None = v
        while cur is not None:
            path.append(cur)
            cur = self.parent[cur]
        return path[::-1]

    def depth(self, v: int) -> int:
        """Distance from the piece's root to ``v``."""
        return len(self.path_from_root(v)) - 1

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor within the piece."""
        ancestors = set(self.path_from_root(u))
        while v not in ancestors:
            v = self.parent[v]  # type: ignore[assignment]
        return v

    def find1(self, start: int, delta: int) -> int:
        """The paper's ``find1``: descend into the largest subtree until the
        subtree holds at most ``4*delta/3`` nodes.

        Requires ``3*size(start) > 4*delta`` and at most two children at
        every visited node (guaranteed for pieces rooted at boundary nodes),
        which yields ``|size(result) - delta| <= floor((delta+1)/3)``.
        """
        u = start
        if 3 * self.size[u] <= 4 * delta:
            raise ValueError("find1 precondition violated: piece too small")
        while 3 * self.size[u] > 4 * delta:
            kids = self.children[u]
            if not kids:
                raise RuntimeError("find1 ran out of children; piece is inconsistent")
            u = max(kids, key=lambda c: self.size[c])
        return u


def _as_universe(tree: BinaryTree, universe: Iterable[int] | None) -> frozenset[int]:
    if universe is None:
        return frozenset(tree.nodes())
    return frozenset(universe)


def lemma1_split(
    tree: BinaryTree,
    r1: int,
    r2: int,
    delta: int,
    universe: Iterable[int] | None = None,
) -> Separation:
    """Lemma 1: split off a side of ``delta +- floor((delta+1)/3)`` nodes.

    ``|S1| <= 4``, ``|S2| <= 2``, exactly one cut edge.  Requires
    ``3*n > 4*delta``, ``delta >= 1``, and ``r1`` of degree at most 2 inside
    the piece (always true when ``r1`` is a boundary/designated node).
    """
    uni = _as_universe(tree, universe)
    n = len(uni)
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if 3 * n <= 4 * delta:
        raise ValueError(f"lemma 1 needs 3n > 4*delta; n={n}, delta={delta}")
    if r2 not in uni or r1 not in uni:
        raise ValueError("designated nodes must lie in the piece")
    piece = _Piece(tree, uni, r1)
    if len(piece.children[r1]) > 2:
        raise ValueError(f"designated root {r1} has degree > 2 inside the piece")
    return _lemma1(piece, uni, r1, r2, delta)


def _lemma1(piece: _Piece, uni: frozenset[int], r1: int, r2: int, delta: int) -> Separation:
    """Lemma 1 on ``uni``, the subtree of ``piece`` below ``r1``: the
    caller's piece already holds its parents, children and sizes."""
    u = piece.find1(r1, delta)
    z = piece.parent[u]
    assert z is not None  # find1 descends at least one step since 3n > 4*delta
    side2 = piece.subtree_nodes(u)
    side1 = uni - side2
    if r2 in side2:
        s1 = frozenset({r1, z})
        s2 = frozenset({u, r2})
    else:
        y = piece.lca(u, r2)
        s1 = frozenset({r1, r2, z, y})
        s2 = frozenset({u})
    return Separation(
        side1=frozenset(side1),
        side2=frozenset(side2),
        s1=s1,
        s2=s2,
        cut_edges=((z, u),),
    )


def lemma2_split(
    tree: BinaryTree,
    r1: int,
    r2: int,
    delta: int,
    universe: Iterable[int] | None = None,
) -> Separation:
    """Lemma 2: split off a side of ``delta +- floor((delta+4)/9)`` nodes.

    ``|S1|, |S2| <= 4``; at most three cut edges; otherwise the same
    contract as :func:`lemma1_split`.  Requires ``1 <= delta <= n - 1``.
    """
    uni = _as_universe(tree, universe)
    n = len(uni)
    if not 1 <= delta <= n - 1:
        raise ValueError(f"lemma 2 needs 1 <= delta <= n-1; n={n}, delta={delta}")
    if r2 not in uni or r1 not in uni:
        raise ValueError("designated nodes must lie in the piece")
    if 3 * n <= 4 * delta:
        # Solve the complementary problem (paper: "interchange the roles"):
        # delta* = n - delta <= n/4 < 3n/4, and the bound only tightens.
        sep = _lemma2_main(tree, uni, r1, r2, n - delta).swapped()
    else:
        sep = _lemma2_main(tree, uni, r1, r2, delta)
    return _repair_collinearity(tree, sep)


def _repair_collinearity(tree: BinaryTree, sep: Separation) -> Separation:
    """Restore collinearity by promoting component medians into the S sets.

    The extended abstract's Lemma 2 proof elides the sub-case bookkeeping
    that keeps every leftover component attached to at most two S nodes; in
    our reconstruction a component can occasionally touch three of the four
    S nodes of its side.  The repair: promote the tree-median of three
    attachment points into S.  The median lies on all three pairwise paths,
    so the component splits into pieces each attached to at most one old S
    node plus (at most once, it being a tree) the median — i.e. at most two
    edges.  Each promotion grows S by one and strictly shrinks the violating
    region, so the loop terminates after a handful of steps; ``n_promotions``
    records how many were needed (0 almost always; see the separator stats
    bench).
    """
    s1, s2 = set(sep.s1), set(sep.s2)
    promotions = 0
    for side, s in ((sep.side1, s1), (sep.side2, s2)):
        while True:
            bad = _crowded_component(tree, s & side, side)
            if bad is None:
                break
            nodes, attachments = bad
            inside = [a for a, _ in attachments[:3]]
            s.add(_component_median(tree, nodes, *inside))
            promotions += 1
    if promotions == 0:
        return sep
    return Separation(
        side1=sep.side1,
        side2=sep.side2,
        s1=frozenset(s1),
        s2=frozenset(s2),
        cut_edges=sep.cut_edges,
        n_promotions=promotions,
    )


def _crowded_component(
    tree: BinaryTree, anchors: set[int], side: frozenset[int]
) -> tuple[frozenset[int], list[tuple[int, int]]] | None:
    """The component of ``side - anchors`` attached to ``anchors`` by more
    than two edges, or ``None`` when ``anchors`` is collinear in ``side``.

    Each attachment edge is charged to its component's top node (the one
    nearest the tree root), found by climbing parent pointers inside the
    component, so the components themselves are walked only when one is
    crowded.  Among several crowded components the one with the smallest
    node wins — the first that :func:`repro.trees.components_after_removal`
    would list.  Returns the component's nodes and its sorted
    ``(inside, anchor)`` edges.
    """
    parent = tree.parent_array
    adj = tree.adjacency
    edges_at: dict[int, int] = {}
    for a in anchors:
        for u in adj[a]:
            if u in anchors or u not in side:
                continue
            top, up = u, parent[u]
            while up != -1 and up not in anchors and up in side:
                top, up = up, parent[up]
            edges_at[top] = edges_at.get(top, 0) + 1
    crowded = None
    for top, n_edges in edges_at.items():
        if n_edges <= 2:
            continue
        comp = {top}
        edges: list[tuple[int, int]] = []
        stack = [top]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in anchors:
                    edges.append((v, u))
                elif u not in comp and u in side:
                    comp.add(u)
                    stack.append(u)
        if crowded is None or min(comp) < min(crowded[0]):
            crowded = (comp, edges)
    if crowded is None:
        return None
    comp, edges = crowded
    return frozenset(comp), sorted(edges)


def _component_median(tree: BinaryTree, nodes: frozenset[int], a: int, b: int, c: int) -> int:
    """The unique node on all three pairwise tree paths among ``a, b, c``.

    All three live in the connected ``nodes``; so does the median.
    """
    piece = _Piece(tree, nodes, a)
    # median = the deeper of lca(a,b)-style meet points; with root a the
    # median of (a, b, c) is the deepest common ancestor of b and c on the
    # paths from a, i.e. the point where the root paths to b and c diverge.
    m1 = piece.lca(b, c)
    m2 = piece.lca(a, b)
    m3 = piece.lca(a, c)
    # For a tree, two of the three pairwise LCAs coincide and the third
    # (the deepest) is the median.
    candidates = [m1, m2, m3]
    return max(candidates, key=piece.depth)


def _lemma2_main(
    tree: BinaryTree,
    uni: frozenset[int],
    r1: int,
    r2: int,
    delta: int,
) -> Separation:
    """Lemma 2 core, assuming ``3n > 4*delta`` and ``delta >= 1``."""
    piece = _Piece(tree, uni, r1)
    if len(piece.children[r1]) > 2:
        raise ValueError(f"designated root {r1} has degree > 2 inside the piece")

    # --- procedure find2: walk from r1 towards r2 while the subtree is big.
    path = piece.path_from_root(r2)  # r1 ... r2
    v = r1
    i = 0
    while 3 * piece.size[v] > 4 * delta and v != r2:
        i += 1
        v = path[i]

    if v == r2 and 3 * piece.size[v] > 4 * delta:
        return _case_both_above(piece, uni, r1, r2, delta)
    if piece.size[v] < delta:
        return _case_small_subtree(piece, uni, r1, r2, v, delta)
    return _case_medium_subtree(piece, uni, r1, r2, v, delta)


def _case_both_above(
    piece: _Piece, uni: frozenset[int], r1: int, r2: int, delta: int
) -> Separation:
    """find2 reached r2 with ``size(r2)`` still large: carve below r2.

    Both designated nodes end up on side 1; ``find1`` is applied (at most)
    twice starting from ``r2``, the second time to correct the first cut's
    size error in whichever direction it went.
    """
    tree = piece.tree
    u1 = piece.find1(r2, delta)
    z1 = piece.parent[u1]
    assert z1 is not None
    P = piece.subtree_nodes(u1)
    e = len(P) - delta
    if e == 0:
        return Separation(
            side1=frozenset(uni - P),
            side2=frozenset(P),
            s1=frozenset({r1, r2, z1}),
            s2=frozenset({u1}),
            cut_edges=((z1, u1),),
        )
    if e > 0:
        # Overshoot: return a sub-piece of size ~e from P back to side 1.
        sub = _Piece(tree, P, u1)
        u2 = sub.find1(u1, e)
        z2 = sub.parent[u2]
        assert z2 is not None
        Q = sub.subtree_nodes(u2)
        return Separation(
            side1=frozenset((uni - P) | Q),
            side2=frozenset(P - Q),
            s1=frozenset({r1, r2, z1, u2}),
            s2=frozenset({u1, z2}),
            cut_edges=((z1, u1), (u2, z2)),
        )
    # Undershoot: carve an extra piece of size ~(-e) from T(r2) - P.
    rest = piece.subtree_nodes(r2) - P
    sub = _Piece(tree, rest, r2)
    u2 = sub.find1(r2, -e)
    z2 = sub.parent[u2]
    assert z2 is not None
    Q = sub.subtree_nodes(u2)
    return Separation(
        side1=frozenset(uni - P - Q),
        side2=frozenset(P | Q),
        s1=frozenset({r1, r2, z1, z2}),
        s2=frozenset({u1, u2}),
        cut_edges=((z1, u1), (z2, u2)),
    )


def _case_small_subtree(
    piece: _Piece, uni: frozenset[int], r1: int, r2: int, v: int, delta: int
) -> Separation:
    """find2 stopped at ``v`` on the r1->r2 path with ``size(v) < delta``.

    ``T(v)`` (which contains r2) moves to side 2 wholesale; the deficit
    ``delta - size(v)`` is made up by carving from ``T(x) - T(v)`` where
    ``x = parent(v)``, correcting once for the 1/9 bound.
    """
    tree = piece.tree
    x = piece.parent[v]
    assert x is not None  # the walk moved at least once because size(r1)=n
    Tv = piece.subtree_nodes(v)
    extra = delta - len(Tv)
    assert extra >= 1
    rest = piece.subtree_nodes(x) - Tv
    sub = _Piece(tree, rest, x)
    w1 = sub.find1(x, extra)
    zw1 = sub.parent[w1]
    assert zw1 is not None
    P1 = sub.subtree_nodes(w1)
    e = len(P1) - extra
    if e == 0:
        return Separation(
            side1=frozenset(uni - Tv - P1),
            side2=frozenset(Tv | P1),
            s1=frozenset({r1, x, zw1}),
            s2=frozenset({v, r2, w1}),
            cut_edges=((x, v), (zw1, w1)),
        )
    if e > 0:
        sub2 = _Piece(tree, P1, w1)
        w2 = sub2.find1(w1, e)
        zw2 = sub2.parent[w2]
        assert zw2 is not None
        Q = sub2.subtree_nodes(w2)
        return Separation(
            side1=frozenset((uni - Tv - P1) | Q),
            side2=frozenset(Tv | (P1 - Q)),
            s1=frozenset({r1, x, zw1, w2}),
            s2=frozenset({v, r2, w1, zw2}),
            cut_edges=((x, v), (zw1, w1), (w2, zw2)),
        )
    rest2 = rest - P1
    sub2 = _Piece(tree, rest2, x)
    w2 = sub2.find1(x, -e)
    zw2 = sub2.parent[w2]
    assert zw2 is not None
    Q = sub2.subtree_nodes(w2)
    return Separation(
        side1=frozenset(uni - Tv - P1 - Q),
        side2=frozenset(Tv | P1 | Q),
        s1=frozenset({r1, x, zw1, zw2}),
        s2=frozenset({v, r2, w1, w2}),
        cut_edges=((x, v), (zw1, w1), (zw2, w2)),
    )


def _case_medium_subtree(
    piece: _Piece, uni: frozenset[int], r1: int, r2: int, v: int, delta: int
) -> Separation:
    """find2 stopped at ``v`` with ``delta <= size(v) <= 4*delta/3``.

    ``T(v)`` is close to the target from above: Lemma 1 inside ``T(v)``
    returns the excess ``size(v) - delta`` to side 1.
    """
    x = piece.parent[v]
    assert x is not None
    Tv = piece.subtree_nodes(v)
    excess = len(Tv) - delta
    if excess == 0:
        return Separation(
            side1=frozenset(uni - Tv),
            side2=frozenset(Tv),
            s1=frozenset({r1, x}),
            s2=frozenset({v, r2}),
            cut_edges=((x, v),),
        )
    inner = _lemma1(piece, frozenset(Tv), v, r2, excess)
    # inner.side2 (~excess nodes) returns to side 1; inner.side1 is our side 2.
    return Separation(
        side1=frozenset((uni - Tv) | inner.side2),
        side2=inner.side1,
        s1=frozenset({r1, x}) | inner.s2,
        s2=inner.s1,
        cut_edges=((x, v),) + tuple((b, a) for a, b in inner.cut_edges),
    )
