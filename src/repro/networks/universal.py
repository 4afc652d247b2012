"""Theorem 4's universal graph G_n as a host :class:`Topology`.

For ``n = 2**t - 16`` (equivalently ``16 * (2**(r+1) - 1)`` with
``r = t - 5``) the universal graph ``G_n`` has one vertex per (X-tree
vertex, slot) pair — ``16`` slots per vertex of X(r) — and connects two
vertices whenever their X-tree components are equal or related through the
Figure 2 neighbourhood ``N``:

    (alpha, j) ~ (beta, k)   iff   alpha == beta and j != k,
                                    or beta in N(alpha), or alpha in N(beta).

Degree bound: ``|N(alpha) - {alpha}| <= 20`` plus at most 5 asymmetric
in-neighbours gives ``25 * 16`` cross edges plus ``15`` within the slot
group = **415** (paper: ``25 * 16 + 15 = 415``).

Distances in G_n factor through the *quotient graph* on X-tree addresses
(one vertex per address, an edge when the slot groups are fully
connected): slots are interchangeable, so for ``alpha != beta`` the G_n
distance between ``(alpha, j)`` and ``(beta, k)`` is exactly the quotient
distance between ``alpha`` and ``beta``, independent of ``j`` and ``k``.
That closed form is what lets the oracle and the vectorised engine treat
a 2032-vertex, degree-415 host like any other registry topology.
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Topology
from .xtree import XAddr, XTree

__all__ = [
    "UniversalGraph",
    "universal_graph_size",
    "UNIVERSAL_SLOTS",
    "PAPER_DEGREE_BOUND",
]

#: slot-group size: each X-tree vertex carries 16 universal-graph vertices
UNIVERSAL_SLOTS = 16

#: paper degree bound for G_n: 25 related slot groups x 16 slots + 15
#: within the own group
PAPER_DEGREE_BOUND = 25 * UNIVERSAL_SLOTS + (UNIVERSAL_SLOTS - 1)

_SLOTS = UNIVERSAL_SLOTS


def universal_graph_size(t: int) -> int:
    """Number of vertices of G_n for parameter ``t``: ``2**t - 16``."""
    if t < 5:
        raise ValueError(f"need t >= 5 so that 2**t - 16 >= 16, got {t}")
    return (1 << t) - 16


class UniversalGraph(Topology):
    """The Theorem 4 graph ``G_n`` on ``(XAddr, slot)`` pairs.

    ``mode="paper"`` (default) uses the N(alpha) relation and has degree at
    most 415; ``mode="radius"`` connects slot groups of X-tree vertices
    within distance ``radius`` (default 3) — a slightly larger, provably
    spanning variant for measured embeddings.
    """

    name = "universal"

    def __init__(self, t: int, mode: str = "paper", radius: int = 3):
        if t < 5:
            raise ValueError(f"need t >= 5, got {t}")
        if mode not in ("paper", "radius"):
            raise ValueError(f"mode must be 'paper' or 'radius', got {mode!r}")
        self.t = t
        self.mode = mode
        self.radius = radius
        self.height = t - 5
        self.xtree = XTree(self.height)
        self._n = _SLOTS * self.xtree.n_nodes
        assert self._n == universal_graph_size(t)
        self._related: dict[XAddr, frozenset[XAddr]] = {}
        self._quotient: list[list[int]] | None = None

    @property
    def spec_args(self) -> tuple[int]:
        """Constructor arguments for checkpoint/scenario host specs.

        ``height`` is derived (``t - 5``), so the generic height-based
        recipe in the runtime would rebuild the wrong graph; this names
        the real recipe explicitly.
        """
        return (self.t,)

    # ------------------------------------------------------------------
    def related(self, alpha: XAddr) -> frozenset[XAddr]:
        """X-tree vertices whose slot groups are fully connected to
        ``alpha``'s (excluding ``alpha`` itself); cached."""
        got = self._related.get(alpha)
        if got is not None:
            return got
        if self.mode == "paper":
            rel = set(self.xtree.condition_neighborhood(alpha))
            rel |= self.xtree.asymmetric_in_neighbors(alpha)
            rel.discard(alpha)
        else:
            dist = {alpha: 0}
            frontier = [alpha]
            for d in range(self.radius):
                nxt = []
                for v in frontier:
                    for u in self.xtree.neighbors(v):
                        if u not in dist:
                            dist[u] = d + 1
                            nxt.append(u)
                frontier = nxt
            rel = set(dist) - {alpha}
        out = frozenset(rel)
        self._related[alpha] = out
        return out

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._n

    def nodes(self) -> Iterator[tuple[XAddr, int]]:
        for v in self.xtree.nodes():
            for k in range(_SLOTS):
                yield (v, k)

    def neighbors(self, node: tuple[XAddr, int]) -> Iterator[tuple[XAddr, int]]:
        alpha, j = node
        self._check(node)
        for k in range(_SLOTS):
            if k != j:
                yield (alpha, k)
        for beta in self.related(alpha):
            for k in range(_SLOTS):
                yield (beta, k)

    def index(self, node: tuple[XAddr, int]) -> int:
        alpha, j = node
        self._check(node)
        return self.xtree.index(alpha) * _SLOTS + j

    def node_at(self, idx: int) -> tuple[XAddr, int]:
        if not 0 <= idx < self._n:
            raise IndexError(f"index {idx} out of range")
        q, k = divmod(idx, _SLOTS)
        return (self.xtree.node_at(q), k)

    def _check(self, node: tuple[XAddr, int]) -> None:
        alpha, j = node
        if not 0 <= j < _SLOTS:
            raise ValueError(f"slot {j} out of range")
        self.xtree._check(alpha)

    def max_degree(self) -> int:
        return max(
            len(self.related(v)) * _SLOTS + (_SLOTS - 1) for v in self.xtree.nodes()
        )

    def has_edge(self, a: tuple[XAddr, int], b: tuple[XAddr, int]) -> bool:
        """Adjacency test without enumerating neighbours."""
        (alpha, j), (beta, k) = a, b
        if alpha == beta:
            return j != k
        return beta in self.related(alpha)

    # ------------------------------------------------------------------
    # Closed-form distance via the address quotient graph
    # ------------------------------------------------------------------
    def quotient_all_pairs(self) -> list[list[int]]:
        """All-pairs distances of the quotient graph on X-tree addresses
        (row/column order = ``xtree.index``); ``-1`` marks unreachable.

        Slot groups of related addresses are fully connected, so G_n
        distance for distinct addresses equals quotient distance; cached.
        """
        if self._quotient is not None:
            return self._quotient
        x = self.xtree
        m = x.n_nodes
        addrs = sorted(x.nodes(), key=x.index)
        adj = [[x.index(b) for b in self.related(a)] for a in addrs]
        matrix = []
        for src in range(m):
            row = [-1] * m
            row[src] = 0
            frontier = [src]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for i in frontier:
                    for j in adj[i]:
                        if row[j] < 0:
                            row[j] = d
                            nxt.append(j)
                frontier = nxt
            matrix.append(row)
        self._quotient = matrix
        return matrix

    def distance(self, u, v, cutoff: int | None = None) -> int | None:
        (alpha, j), (beta, k) = u, v
        self._check(u)
        self._check(v)
        if alpha == beta:
            d = 0 if j == k else 1
        else:
            q = self.quotient_all_pairs()
            d = q[self.xtree.index(alpha)][self.xtree.index(beta)]
            if d < 0:
                return None
        if cutoff is not None and d > cutoff:
            return None
        return d
