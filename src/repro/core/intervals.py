"""Layout state for the Theorem 1 construction: placements, slots, pieces.

The iterative embedding maintains, between rounds:

* a partial placement ``delta_i`` of guest nodes onto X-tree vertices, with
  at most (finally: exactly) 16 guests per vertex — the *load factor*;
* the unplaced remainder as a set of **pieces**: connected guest subtrees
  whose already-placed neighbours all sit on a single X-tree vertex, the
  piece's *characteristic address* ``sigma`` (paper: condition (6));
* an *attachment* of every piece to a leaf of the current X-tree (paper:
  the mapping ``p_i``), which is where the piece's nodes will eventually be
  laid out below;
* per-vertex subtree weights ``|A_i(alpha)|`` — placed plus attached nodes
  associated below ``alpha`` — the quantity ADJUST/SPLIT balance.

Pieces expose their *designated nodes* (unplaced nodes adjacent to placed
ones); the collinearity invariant of the separator lemmas keeps these at
most two per piece, which is what lets the lemmas be re-applied round after
round.

This module is pure bookkeeping; the round logic lives in
:mod:`repro.core.xtree_embed`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from ..networks.xtree import XAddr, XTree
from ..trees.binary_tree import BinaryTree

__all__ = ["Piece", "LayoutState", "LayoutStats"]


@dataclass(frozen=True)
class Piece:
    """A connected unplaced subtree attached to an X-tree leaf.

    ``sigma`` is the characteristic address: the X-tree vertex holding every
    placed neighbour of the piece.  ``designated`` are the piece's nodes
    adjacent to placed nodes (at most two when collinearity holds).
    """

    nodes: frozenset[int]
    sigma: XAddr
    leaf: XAddr
    designated: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def moved_to(self, leaf: XAddr) -> Piece:
        """The same piece attached to a different leaf."""
        return Piece(self.nodes, self.sigma, leaf, self.designated)


@dataclass
class LayoutStats:
    """Counters for the defensive paths of the construction.

    All zeros on a run means the execution stayed entirely inside the
    paper's nominal invariants; non-zero entries quantify how often the
    engineering fallbacks (documented in DESIGN.md section 5) fired.
    """

    sigma_conflicts: int = 0
    overflow_placements: int = 0
    separator_promotions: int = 0
    final_spill_distance: int = 0
    final_spill_count: int = 0
    #: peak number of pieces attached to one leaf — the paper's section 2
    #: bounds the intervals per vertex by 16 (28 transiently inside SPLIT);
    #: tracked to compare our trajectory against that accounting
    max_pieces_per_leaf: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class LayoutState:
    """Mutable state of the iterative partial embedding."""

    def __init__(self, tree: BinaryTree, xtree: XTree, capacity: int = 16):
        self.tree = tree
        self.xtree = xtree
        self.capacity = capacity
        self.place: dict[int, XAddr] = {}
        self.slots: dict[XAddr, list[int]] = {}
        self.weight: dict[XAddr, int] = {}
        #: pieces indexed by attachment leaf
        self.pieces_at: dict[XAddr, list[Piece]] = {}
        self.stats = LayoutStats()

    # ------------------------------------------------------------------
    # Low-level mutation
    # ------------------------------------------------------------------
    def _bump_weight(self, addr: XAddr, amount: int) -> None:
        level, idx = addr
        while True:
            key = (level, idx)
            self.weight[key] = self.weight.get(key, 0) + amount
            if level == 0:
                break
            level, idx = level - 1, idx >> 1

    def _shift_weight(self, src: XAddr, dst: XAddr, amount: int) -> None:
        """Move ``amount`` of weight from ``src`` to ``dst``.

        Their common ancestors gain and lose the same amount, so only the
        vertices below the lowest common ancestor are touched.
        """
        weight = self.weight
        while src != dst:
            if src[0] >= dst[0]:
                weight[src] = weight.get(src, 0) - amount
                src = (src[0] - 1, src[1] >> 1)
            else:
                weight[dst] = weight.get(dst, 0) + amount
                dst = (dst[0] - 1, dst[1] >> 1)

    def load(self, addr: XAddr) -> int:
        """Current number of guests placed at ``addr``."""
        return len(self.slots.get(addr, ()))

    def free(self, addr: XAddr) -> int:
        """Remaining slot capacity at ``addr``."""
        return self.capacity - self.load(addr)

    def _place(self, nodes: Sequence[int], addr: XAddr) -> None:
        """Place ``nodes`` at ``addr`` without touching the weights;
        capacity and double-placement checked."""
        place = self.place
        bucket = self.slots.setdefault(addr, [])
        for v in nodes:
            if v in place:
                raise RuntimeError(f"guest node {v} placed twice")
            if len(bucket) >= self.capacity:
                raise RuntimeError(f"capacity exceeded at {addr}")
            bucket.append(v)
            place[v] = addr

    def place_node(self, v: int, addr: XAddr) -> None:
        """Place one guest node; capacity and double-placement checked."""
        self._place((v,), addr)
        self._bump_weight(addr, 1)

    def _index(self, piece: Piece) -> None:
        """Append ``piece`` to its leaf's list; weights untouched."""
        bucket = self.pieces_at.setdefault(piece.leaf, [])
        bucket.append(piece)
        if len(bucket) > self.stats.max_pieces_per_leaf:
            self.stats.max_pieces_per_leaf = len(bucket)

    def attach(self, piece: Piece) -> None:
        """Attach a piece to its leaf, updating subtree weights."""
        self._index(piece)
        self._bump_weight(piece.leaf, piece.size)

    def detach(self, piece: Piece) -> None:
        """Remove a piece from the attachment index."""
        self.pieces_at[piece.leaf].remove(piece)
        self._bump_weight(piece.leaf, -piece.size)

    def move(self, piece: Piece, leaf: XAddr) -> Piece:
        """Re-attach ``piece`` at ``leaf`` (at the back of that leaf's list);
        returns the moved piece."""
        self.pieces_at[piece.leaf].remove(piece)
        moved = piece.moved_to(leaf)
        self._index(moved)
        self._shift_weight(piece.leaf, leaf, piece.size)
        return moved

    def lay_out(
        self, piece: Piece, parts: Sequence[tuple[Sequence[int], frozenset[int], XAddr]]
    ) -> list[Piece]:
        """Replace the attached ``piece`` by placements and residual pieces.

        Each part ``(placed, rest, addr)`` places ``placed`` at ``addr`` in
        the order given and attaches the components of ``rest`` there; the
        parts together cover ``piece.nodes``.  Every placement is made
        before any residual is wrapped, so each residual sees all of its
        placed neighbours.  The weights change by the net move only — each
        part's nodes go from ``piece.leaf`` to its ``addr``.  Returns the
        residual pieces, already attached.
        """
        self.pieces_at[piece.leaf].remove(piece)
        for placed, _rest, addr in parts:
            self._place(placed, addr)
        residuals: list[Piece] = []
        for placed, rest, addr in parts:
            if rest:
                for p in self.make_pieces(rest, addr):
                    self._index(p)
                    residuals.append(p)
            self._shift_weight(piece.leaf, addr, len(placed) + len(rest))
        return residuals

    def pop_pieces(self, leaf: XAddr) -> list[Piece]:
        """Detach and return every piece attached at ``leaf``."""
        out = list(self.pieces_at.get(leaf, ()))
        for p in out:
            self.detach(p)
        return out

    # ------------------------------------------------------------------
    # Piece construction
    # ------------------------------------------------------------------
    def make_pieces(self, nodes: frozenset[int], leaf: XAddr) -> list[Piece]:
        """Split ``nodes`` into connected components and wrap them as pieces.

        Each component's ``sigma`` is the placement address of its placed
        neighbours.  If (defensively) a component sees placed neighbours at
        several addresses — the theory says it cannot — the majority address
        wins and the event is counted in ``stats.sigma_conflicts``.
        """
        adj = self.tree.adjacency
        place = self.place
        out: list[Piece] = []
        # ``nodes`` are unplaced, so a neighbour that is neither still
        # unvisited nor placed is one of this component's visited nodes
        unvisited = set(nodes)
        visit = unvisited.remove
        for start in nodes:
            if start not in unvisited:
                continue
            comp: list[int] = []
            desig: list[int] = []
            sigmas: list[XAddr] = []
            stack = [start]
            push = stack.append
            visit(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                is_designated = False
                for u in adj[v]:
                    if u in unvisited:
                        visit(u)
                        push(u)
                    elif u in place:
                        is_designated = True
                        sigmas.append(place[u])
                if is_designated:
                    desig.append(v)
            if not sigmas:
                raise RuntimeError("piece with no placed neighbour; tree disconnected?")
            uniq = set(sigmas)
            if len(uniq) > 1:
                self.stats.sigma_conflicts += 1
                sigma = max(uniq, key=sigmas.count)
            else:
                sigma = sigmas[0]
            out.append(Piece(frozenset(comp), sigma, leaf, tuple(sorted(desig))))
        return out

    # ------------------------------------------------------------------
    # Peeling: batch placement of a connected blob of a piece
    # ------------------------------------------------------------------
    def peel(self, piece: Piece, k: int, addr: XAddr) -> list[Piece]:
        """Place up to ``k`` nodes of the attached ``piece`` at ``addr``.

        Takes a BFS-connected blob grown from the designated nodes so every
        placed node has a placed neighbour (zero intra-blob dilation), then
        rewraps the remainder into pieces attached at ``addr``.

        The blob always contains *all* designated nodes — otherwise a
        residual component could be adjacent to placed nodes both at the old
        ``sigma`` and at ``addr``, breaking the single-characteristic-address
        invariant.  If the slot cannot even hold the designated nodes the
        peel is refused and the piece moves, unchanged, to the back of its
        leaf's list.

        Returns the residual pieces (already attached).
        """
        k = min(k, piece.size, self.free(addr))
        if k < min(len(piece.designated), piece.size) or k <= 0:
            bucket = self.pieces_at[piece.leaf]
            bucket.remove(piece)
            bucket.append(piece)
            return [piece]
        adj = self.tree.adjacency
        nodes = piece.nodes
        blob: list[int] = []
        seen = set(piece.designated)
        queue = deque(piece.designated)
        while queue and len(blob) < k:
            v = queue.popleft()
            blob.append(v)
            for u in adj[v]:
                if u in nodes and u not in seen:
                    seen.add(u)
                    queue.append(u)
        return self.lay_out(piece, ((blob, nodes - frozenset(blob), addr),))

    # ------------------------------------------------------------------
    # Inspection / invariants
    # ------------------------------------------------------------------
    def all_pieces(self) -> list[Piece]:
        return [p for plist in self.pieces_at.values() for p in plist]

    def n_unplaced(self) -> int:
        return sum(p.size for p in self.all_pieces())

    def validate(self, round_i: int | None = None) -> None:
        """Check the structural invariants; raises on violation.

        Intended for tests and debug runs — O(n) per call: the weights are
        recomputed in one bottom-up pass over the X-tree.
        """
        pieces = self.all_pieces()
        # disjointness and totality
        placed = set(self.place)
        unplaced: set[int] = set()
        for p in pieces:
            if p.nodes & unplaced:
                raise AssertionError("pieces overlap")
            unplaced |= p.nodes
        if placed & unplaced:
            raise AssertionError("placed node also in a piece")
        if len(placed) + len(unplaced) != self.tree.n:
            raise AssertionError("nodes lost: placed+unplaced != n")
        # slots consistent with placement
        for addr, bucket in self.slots.items():
            if len(bucket) > self.capacity:
                raise AssertionError(f"overfull slot {addr}")
            for v in bucket:
                if self.place[v] != addr:
                    raise AssertionError("slots/place mismatch")
        # weights: own placements and attachments, summed up level by level
        sums = [[0] * (1 << level) for level in range(self.xtree.height + 1)]
        for level, idx in self.place.values():
            sums[level][idx] += 1
        for p in pieces:
            level, idx = p.leaf
            sums[level][idx] += p.size
        for level in range(self.xtree.height, 0, -1):
            above = sums[level - 1]
            for idx, w in enumerate(sums[level]):
                above[idx >> 1] += w
        recomputed = {
            (level, idx): w for level, row in enumerate(sums) for idx, w in enumerate(row) if w
        }
        for addr in sorted(self.weight.keys() | recomputed.keys()):
            w, want = self.weight.get(addr, 0), recomputed.get(addr, 0)
            if w != want:
                raise AssertionError(f"weight drift at {addr}: {w} != {want}")
        # piece invariants
        for p in pieces:
            if len(p.designated) > 2:
                raise AssertionError(f"piece with {len(p.designated)} designated nodes")
