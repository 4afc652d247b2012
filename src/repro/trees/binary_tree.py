"""Rooted binary trees — the guest structures of the paper.

A *binary tree* here is what the paper quantifies over: a rooted tree in
which every node has at most two children (hence maximum degree three, and
the root has degree at most two).  Nodes are labelled ``0 .. n-1``; the
canonical storage is a parent array (``-1`` marks the root) plus derived
children lists.

The class is deliberately immutable-ish: algorithms that need to dissect
trees (the separator lemmas, the embedding) work on index arrays and node
sets rather than mutating the tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = ["BinaryTree", "theorem1_guest_size", "theorem3_guest_size"]


def theorem1_guest_size(r: int) -> int:
    """Guest size for Theorem 1 / 2: ``16 * (2**(r+1) - 1)`` (X(r), load 16)."""
    if r < 0:
        raise ValueError(f"height must be non-negative, got {r}")
    return 16 * ((1 << (r + 1)) - 1)


def theorem3_guest_size(r: int) -> int:
    """Guest size for Theorem 3: ``16 * (2**r - 1)`` (hypercube Q_r, load 16)."""
    if r < 0:
        raise ValueError(f"dimension must be non-negative, got {r}")
    return 16 * ((1 << r) - 1)


class BinaryTree:
    """An ``n``-node rooted tree with at most two children per node."""

    __slots__ = ("_parent", "_children", "_adj", "_root", "_n")

    def __init__(self, parent: Sequence[int]):
        """Build from a parent array; ``parent[v] == -1`` marks the root.

        Raises :class:`ValueError` unless the array describes a single
        connected rooted tree in which every node has at most two children.
        """
        n = len(parent)
        if n == 0:
            raise ValueError("a binary tree must have at least one node")
        self._n = n
        self._parent = tuple(map(int, parent))
        roots = [v for v, p in enumerate(self._parent) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        self._root = roots[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(self._parent):
            if p == -1:
                continue
            if not 0 <= p < n:
                raise ValueError(f"parent[{v}] = {p} out of range")
            children[p].append(v)
        for v, kids in enumerate(children):
            if len(kids) > 2:
                raise ValueError(f"node {v} has {len(kids)} children; at most 2 allowed")
        self._children = tuple(map(tuple, children))
        self._check_connected()
        self._adj = tuple(
            kids if p == -1 else (p, *kids) for p, kids in zip(self._parent, self._children)
        )

    def _check_connected(self) -> None:
        """Every node must be reachable from the root; with one parent per
        node and a single root, a node that is not lies on a cycle."""
        reached = [self._root]
        for v in reached:
            reached.extend(self._children[v])
        if len(reached) != self._n:
            raise ValueError("parent array contains a cycle")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], root: int = 0) -> BinaryTree:
        """Build from an undirected edge list, orienting away from ``root``."""
        adj: list[list[int]] = [[] for _ in range(n)]
        count = 0
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            count += 1
        if count != n - 1:
            raise ValueError(f"a tree on {n} nodes needs {n - 1} edges, got {count}")
        parent = [-2] * n
        parent[root] = -1
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if parent[v] == -2:
                    parent[v] = u
                    stack.append(v)
        if any(p == -2 for p in parent):
            raise ValueError("edge list is not connected")
        return cls(parent)

    @classmethod
    def from_nested(cls, spec) -> BinaryTree:
        """Build from nested tuples: ``(left, right)`` with ``None`` for absent.

        Example: ``BinaryTree.from_nested(((None, None), None))`` is a
        three-node path rooted at the top.  Leaves may be written as ``()``.
        """
        parent: list[int] = []

        def build(node, par: int) -> int:
            idx = len(parent)
            parent.append(par)
            if node is None:
                raise ValueError("None marks an absent child, not a subtree")
            for child in node:
                if child is not None:
                    build(child, idx)
            return idx

        if spec is None:
            raise ValueError("tree specification must not be None")
        build(spec, -1)
        return cls(parent)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def root(self) -> int:
        """The root node."""
        return self._root

    def parent(self, v: int) -> int | None:
        """Parent of ``v``, or ``None`` for the root."""
        p = self._parent[v]
        return None if p == -1 else p

    @property
    def parent_array(self) -> tuple[int, ...]:
        """The raw parent array (``-1`` for the root)."""
        return self._parent

    def children(self, v: int) -> tuple[int, ...]:
        """The children of ``v`` (0, 1 or 2 of them)."""
        return self._children[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Parent (if any) followed by children."""
        return self._adj[v]

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency[v] == neighbors(v)`` for every node, as one table —
        what the traversal loops of the construction index directly."""
        return self._adj

    def degree(self, v: int) -> int:
        """Number of tree neighbours of ``v`` (at most 3)."""
        return len(self._adj[v])

    def is_leaf(self, v: int) -> bool:
        """True when ``v`` has no children."""
        return not self._children[v]

    def nodes(self) -> range:
        """All node labels."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All (parent, child) edges."""
        for v, p in enumerate(self._parent):
            if p != -1:
                yield (p, v)

    # ------------------------------------------------------------------
    # Global structure
    # ------------------------------------------------------------------
    def subtree_sizes(self) -> list[int]:
        """``sizes[v]`` = number of nodes in the subtree rooted at ``v``."""
        sizes = [1] * self._n
        for v in reversed(self.preorder()):
            p = self._parent[v]
            if p != -1:
                sizes[p] += sizes[v]
        return sizes

    def preorder(self) -> list[int]:
        """Preorder (root first) listing of the nodes; iterative."""
        order: list[int] = []
        stack = [self._root]
        while stack:
            v = stack.pop()
            order.append(v)
            # push right first so the left child is visited first
            for c in reversed(self._children[v]):
                stack.append(c)
        return order

    def depths(self) -> list[int]:
        """``depths[v]`` = distance from the root to ``v``."""
        depth = [0] * self._n
        for v in self.preorder():
            p = self._parent[v]
            if p != -1:
                depth[v] = depth[p] + 1
        return depth

    def height(self) -> int:
        """Longest root-to-leaf distance."""
        return max(self.depths())

    def is_complete(self) -> bool:
        """True when the tree is a complete binary tree (all levels full)."""
        n = self._n + 1
        if n & (n - 1):
            return False
        depth = self.depths()
        h = max(depth)
        from collections import Counter

        per_level = Counter(depth)
        return all(per_level[d] == (1 << d) for d in range(h + 1))

    def tree_distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v`` inside the tree."""
        depth = self.depths()
        d = 0
        while depth[u] > depth[v]:
            u = self._parent[u]
            d += 1
        while depth[v] > depth[u]:
            v = self._parent[v]
            d += 1
        while u != v:
            u = self._parent[u]
            v = self._parent[v]
            d += 2
        return d

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def rerooted(self, new_root: int) -> BinaryTree:
        """The same undirected tree rooted at ``new_root``.

        Only valid when ``new_root`` has degree at most 2 (otherwise the
        result would have a node with three children).
        """
        if self.degree(new_root) > 2:
            raise ValueError(f"cannot reroot at {new_root}: degree {self.degree(new_root)} > 2")
        return BinaryTree.from_edges(self._n, self.edges(), root=new_root)

    def padded_to(self, target_n: int) -> BinaryTree:
        """Extend with a chain of filler nodes so the result has ``target_n`` nodes.

        The filler is a path attached below the first node found with spare
        child capacity (leaves are preferred so the original shape is kept
        intact).  This implements the DESIGN.md substitution rule for guest
        sizes that are not of the exact Theorem 1 form.
        """
        if target_n < self._n:
            raise ValueError(f"cannot shrink a tree: {self._n} -> {target_n}")
        if target_n == self._n:
            return self
        attach = None
        for v in range(self._n):
            if self.is_leaf(v):
                attach = v
                break
        if attach is None:  # no leaf would be impossible, but stay defensive
            attach = next(v for v in range(self._n) if len(self._children[v]) < 2)
        parent = list(self._parent)
        prev = attach
        for _ in range(target_n - self._n):
            parent.append(prev)
            prev = len(parent) - 1
        return BinaryTree(parent)

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinaryTree) and self._parent == other._parent

    def __hash__(self) -> int:
        return hash(self._parent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinaryTree(n={self._n}, root={self._root})"
