"""Theorem 1: embedding an arbitrary binary tree into its optimal X-tree.

The construction follows the paper's algorithm ``X-TREE`` (section 2):

* **Round 0** chooses a 16-node connected subtree and places it on the
  X-tree root; every remaining component is attached to the root.
* **Round i** first runs ``ADJUST(alpha0, alpha1, i)`` for every vertex pair
  of siblings from level 1 down to level ``i-1``: the weights associated
  below the two siblings are balanced by shifting pieces across the
  *boundary* — the horizontal edge between the rightmost leaf below
  ``alpha0`` and the leftmost leaf below ``alpha1`` — using the separator
  lemmas; the separator nodes are laid out on the two new (level ``i``)
  leaves flanking that boundary, so every guest edge they carry spans at
  most 3 host hops.
* Then ``SPLIT(alpha, i)`` distributes each level ``i-1`` leaf's attached
  pieces between its two children, places every designated node whose
  placed neighbour sits two levels up (condition (4): neighbour levels may
  differ by at most 2), fine-tunes the sibling balance with one more lemma
  split, and fills both children to exactly 16 guests by peeling connected
  blobs off the attached pieces.
* A **final rearrangement** places whatever the bottom rounds left over
  into the nearest free slots.

Every placement puts a guest within host distance 3 of its placed
neighbours, inside the Figure 2 neighbourhood ``N(alpha)`` (the paper's
condition (3')).  The published abstract omits the revision of ADJUST and
the last-two-level estimations; docs/ALGORITHM.md section 3 describes the
reconstruction that closes the gap (chiefly: the balancing step never
re-attaches a child-anchored piece sideways), after which the measured
dilation is <= 3 with zero (3') violations at every size tested.  The
defensive fallbacks (slot overflow, final spill) are counted in
:class:`~repro.core.intervals.LayoutStats` and reported by the benchmarks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..networks.xtree import XAddr, XTree, xtree_size
from ..obs.spans import span
from ..trees.binary_tree import BinaryTree, theorem1_guest_size
from .embedding import Embedding
from .intervals import LayoutState, LayoutStats, Piece
from .separators import lemma2_split

__all__ = ["EmbedConfig", "XTreeEmbeddingResult", "embed_binary_tree", "theorem1_embedding"]

#: Maximum nodes ADJUST may lay out on one new leaf (paper reserves 4; we
#: allow a little slack for separator promotions).
_ADJUST_BUDGET = 6


@dataclass(frozen=True)
class EmbedConfig:
    """Tunable knobs of the construction, for the ablation benchmarks.

    The defaults are the full algorithm; switching a knob off removes one of
    the ingredients so its contribution can be measured
    (``benchmarks/bench_ablation.py``).

    ``adjust_sigma_filter``
        ADJUST only moves pieces whose characteristic address is the
        boundary leaf or its parent — exactly the two cases the paper's
        procedure handles.  With ``sideways_balance_moves`` disabled (the
        default) no other kind of piece can reach a boundary leaf, so this
        acts as a defensive invariant rather than a behaviour change.
    ``sideways_balance_moves``
        Allow SPLIT's balancing step to re-attach *any* piece between the
        two children, including pieces anchored at one of them.  Such a
        piece ends up attached sideways of its characteristic address; one
        round later its forced placement lands two levels below a
        non-ancestor — exact distance 3 but *outside* the Figure 2
        neighbourhood, breaking condition (3') and hence Theorem 4's
        spanning property.  Off by default; the ablation bench switches it
        on to demonstrate the failure mode the paper's (unpublished)
        bookkeeping must avoid.
    ``neighbor_fill``
        After the per-leaf fill, underfull leaves may peel from pieces
        attached to their horizontal neighbours.  It cuts the number of
        final-phase spills several-fold but the greedy stealing perturbs
        the carefully damped ADJUST balance, measurably *raising* worst-case
        dilation at depth — hence **off by default**; kept for the ablation
        study (bench_ablation.py).
    ``balance_children``
        SPLIT's fine-tuning lemma split across the two children (the
        paper's "4 free places" step).
    """

    adjust_sigma_filter: bool = True
    sideways_balance_moves: bool = False
    neighbor_fill: bool = False
    balance_children: bool = True


@dataclass
class XTreeEmbeddingResult:
    """Outcome of the Theorem 1 construction."""

    embedding: Embedding
    stats: LayoutStats
    #: per-round maximum sibling weight imbalance, per level: entry
    #: ``history[i][j]`` is ``max |A(alpha0)| - |A(alpha1)|`` over sibling
    #: pairs with parent on level j after round i — the paper's ``2 *
    #: Delta(j, i)``, which its estimations bound by ``2^{r+j+2-2i}``.
    history: list[dict[int, int]] = field(default_factory=list)

    @property
    def dilation(self) -> int:
        return self.embedding.dilation()

    @property
    def load_factor(self) -> int:
        return self.embedding.load_factor()


def theorem1_embedding(
    tree: BinaryTree, *, validate: bool = False, config: EmbedConfig | None = None,
    separator=None,
) -> XTreeEmbeddingResult:
    """The Theorem 1 statement: ``n = 16 * (2**(r+1) - 1)`` required.

    Raises :class:`ValueError` when the guest size is not of the exact
    form; use :func:`embed_binary_tree` for arbitrary sizes (it pads).
    """
    r = 0
    while theorem1_guest_size(r) < tree.n:
        r += 1
    if theorem1_guest_size(r) != tree.n:
        raise ValueError(
            f"Theorem 1 requires n = 16*(2^(r+1)-1); got n={tree.n} "
            f"(nearest valid sizes: {theorem1_guest_size(max(r - 1, 0))}, "
            f"{theorem1_guest_size(r)})"
        )
    return embed_binary_tree(
        tree, height=r, validate=validate, config=config, separator=separator
    )


def embed_binary_tree(
    tree: BinaryTree,
    *,
    height: int | None = None,
    capacity: int = 16,
    validate: bool = False,
    config: EmbedConfig | None = None,
    separator=None,
) -> XTreeEmbeddingResult:
    """Embed ``tree`` into an X-tree with load factor at most ``capacity``.

    ``height`` defaults to the smallest X-tree with enough slots.  When the
    guest is smaller than ``capacity * (2**(height+1) - 1)`` it is padded
    with a filler chain (see :meth:`BinaryTree.padded_to`); the returned
    embedding covers the padded tree, whose first ``tree.n`` nodes are the
    original guest.

    ``separator`` selects the split strategy for the ADJUST/SPLIT phases:
    ``None`` (the built-in Lemma 2 call), a registry name (``"paper"``,
    ``"flow"``), or a :class:`repro.separators.Separator` instance.
    ``None`` and ``"paper"`` produce bit-identical embeddings.
    """
    if capacity < 2:
        raise ValueError(f"capacity must be at least 2, got {capacity}")
    if separator is not None:
        from ..separators import make_separator

        separator = make_separator(separator)
    if height is None:
        height = 0
        while capacity * xtree_size(height) < tree.n:
            height += 1
    total = capacity * xtree_size(height)
    if tree.n > total:
        raise ValueError(
            f"guest with {tree.n} nodes cannot fit X({height}) at load {capacity}"
        )
    if tree.n < total:
        tree = tree.padded_to(total)
    embedder = _XTreeEmbedder(
        tree, height, capacity, validate, config or EmbedConfig(),
        separator=separator,
    )
    return embedder.run()


class _XTreeEmbedder:
    """One run of the X-TREE algorithm; see the module docstring."""

    def __init__(
        self,
        tree: BinaryTree,
        r: int,
        capacity: int,
        validate: bool,
        config: EmbedConfig | None = None,
        separator=None,
    ):
        self.config = config or EmbedConfig()
        self.separator = separator
        self.tree = tree
        self.r = r
        self.capacity = capacity
        self.validate = validate
        self.xtree = XTree(r)
        self.state = LayoutState(tree, self.xtree, capacity)
        self.history: list[dict[int, int]] = []

    # ------------------------------------------------------------------
    def run(self) -> XTreeEmbeddingResult:
        with span("embed.round0", r=self.r, n=self.tree.n):
            self._round0()
        for i in range(1, self.r + 1):
            with span("embed.adjust", round=i, r=self.r):
                self._adjust_phase(i)
            with span("embed.split", round=i, r=self.r):
                self._split_phase(i)
            self._record_history(i)
            if self.validate:
                self.state.validate(i)
        with span("embed.finalize", r=self.r):
            self._finalize()
        if self.validate:
            self.state.validate()
        embedding = Embedding(self.tree, self.xtree, self.state.place)
        return XTreeEmbeddingResult(embedding, self.state.stats, self.history)

    # ------------------------------------------------------------------
    # Round 0
    # ------------------------------------------------------------------
    def _round0(self) -> None:
        """Place a connected ``capacity``-node blob at the root.

        A BFS prefix from the guest root: every further component then hangs
        off the blob by exactly one edge, so all pieces start with a single
        designated node and characteristic address equal to the root.
        """
        root_addr: XAddr = (0, 0)
        blob: list[int] = []
        queue = deque([self.tree.root])
        seen = {self.tree.root}
        while queue and len(blob) < self.capacity:
            v = queue.popleft()
            blob.append(v)
            for u in self.tree.children(v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        for v in blob:
            self.state.place_node(v, root_addr)
        rest = frozenset(self.tree.nodes()) - frozenset(blob)
        if rest:
            for piece in self.state.make_pieces(rest, root_addr):
                self.state.attach(piece)

    # ------------------------------------------------------------------
    # ADJUST
    # ------------------------------------------------------------------
    def _adjust_phase(self, i: int) -> None:
        for j in range(0, i - 1):  # paper: j = 0 .. i-2
            for a in range(1 << j):
                self._adjust((j + 1, 2 * a), (j + 1, 2 * a + 1), i)

    def _adjust(self, a0: XAddr, a1: XAddr, i: int) -> None:
        """Balance the weights below siblings ``a0``/``a1`` across their
        boundary horizontal edge, laying separators on the new leaves."""
        w0 = self.state.weight.get(a0, 0)
        w1 = self.state.weight.get(a1, 0)
        delta = abs(w0 - w1) // 2
        if delta == 0:
            return
        j = a0[0] - 1
        shift = i - 2 - j  # old leaves live on level i-1
        right_of_a0 = (i - 1, ((a0[1] + 1) << shift) - 1)
        left_of_a1 = (i - 1, a1[1] << shift)
        if w0 > w1:
            heavy_leaf, light_leaf = right_of_a0, left_of_a1
            heavy_new = (i, 2 * right_of_a0[1] + 1)  # right child of boundary
            light_new = (i, 2 * left_of_a1[1])  # left child of boundary
        else:
            heavy_leaf, light_leaf = left_of_a1, right_of_a0
            heavy_new = (i, 2 * left_of_a1[1])
            light_new = (i, 2 * right_of_a0[1] + 1)
        self._shift_across(heavy_leaf, heavy_new, light_new, delta)

    def _shift_across(
        self, boundary_leaf: XAddr, heavy_new: XAddr, light_new: XAddr, delta: int
    ) -> None:
        """Move roughly ``delta`` attached guest nodes from the boundary leaf
        of the heavy side over to the light side.

        Strategy (paper, procedure ADJUST): if one attached piece holds at
        least ``delta`` nodes, split it with Lemma 2; otherwise move whole
        pieces, largest first, and finish with a split for the remainder.
        Placement budgets keep ADJUST within a handful of the 16 slots of
        each new leaf.
        """
        state = self.state
        pool = list(state.pieces_at.get(boundary_leaf, ()))
        if self.config.adjust_sigma_filter:
            # Paper-faithful pool: only pieces whose characteristic address
            # is the boundary leaf or its parent — the two cases procedure
            # ADJUST handles — may cross.  (A sideways-sigma piece laid on
            # light_new would land outside N(sigma), breaking (3').)
            parent = (boundary_leaf[0] - 1, boundary_leaf[1] >> 1)
            pool = [p for p in pool if p.sigma in (boundary_leaf, parent)]
        pool.sort(key=lambda p: p.size, reverse=True)
        if not pool:
            return
        remaining = delta
        budget = {
            heavy_new: min(_ADJUST_BUDGET, state.free(heavy_new)),
            light_new: min(_ADJUST_BUDGET, state.free(light_new)),
        }
        # Prefer a single split of the smallest sufficient piece.
        big = [p for p in pool if p.size >= delta]
        if big:
            piece = min(big, key=lambda p: p.size)
            self._split_or_move(piece, remaining, heavy_new, light_new, budget)
            return
        for piece in pool:
            if remaining <= 0 or budget[light_new] < len(piece.designated):
                break
            if piece.size <= remaining:
                if self._move_whole(piece, light_new):
                    budget[light_new] -= len(piece.designated)
                    remaining -= piece.size
            else:
                self._split_or_move(piece, remaining, heavy_new, light_new, budget)
                remaining = 0

    def _split_or_move(
        self,
        piece: Piece,
        delta: int,
        stay_leaf: XAddr,
        move_leaf: XAddr,
        budget: dict[XAddr, int],
    ) -> None:
        """Split ``piece`` with Lemma 2 to move ``~delta`` nodes, or move it
        whole when it is not larger than the target."""
        state = self.state
        if piece.size <= delta:
            self._move_whole(piece, move_leaf)
            return
        r1 = piece.designated[0]
        r2 = piece.designated[-1]
        if self.separator is None:
            sep = lemma2_split(self.tree, r1, r2, delta, universe=piece.nodes)
        else:
            sep = self.separator.split(
                self.tree, r1, r2, delta, universe=piece.nodes
            )
        state.stats.separator_promotions += sep.n_promotions
        need_stay = len(sep.s1)
        need_move = len(sep.s2)
        if need_stay > budget.get(stay_leaf, state.free(stay_leaf)) or need_move > budget.get(
            move_leaf, state.free(move_leaf)
        ):
            return  # not enough room this round; imbalance is retried later
        state.detach(piece)
        for v in sorted(sep.s1):
            state.place_node(v, stay_leaf)
        for v in sorted(sep.s2):
            state.place_node(v, move_leaf)
        if stay_leaf in budget:
            budget[stay_leaf] -= need_stay
        if move_leaf in budget:
            budget[move_leaf] -= need_move
        for side, leaf in ((sep.side1 - sep.s1, stay_leaf), (sep.side2 - sep.s2, move_leaf)):
            if side:
                for p in state.make_pieces(frozenset(side), leaf):
                    state.attach(p)

    def _move_whole(self, piece: Piece, leaf: XAddr) -> bool:
        """Lay the piece's designated nodes on ``leaf`` and re-attach the
        remainder there, moving the whole piece to the new side.

        Expects an *attached* piece; on refusal (no room) the piece is left
        attached where it was.
        """
        state = self.state
        if state.free(leaf) < len(piece.designated):
            return False
        state.detach(piece)
        for d in piece.designated:
            state.place_node(d, leaf)
        rest = piece.nodes - frozenset(piece.designated)
        if rest:
            for p in state.make_pieces(frozenset(rest), leaf):
                state.attach(p)
        return True

    # ------------------------------------------------------------------
    # SPLIT
    # ------------------------------------------------------------------
    def _split_phase(self, i: int) -> None:
        for a in range(1 << (i - 1)):
            self._split((i - 1, a), i)
        # fill runs after every vertex of the level distributed its pieces,
        # so peeling can draw on everything finally attached to each leaf
        for a in range(1 << i):
            self._fill((i, a))
        if self.config.neighbor_fill:
            for a in range(1 << i):
                self._neighbor_fill((i, a))

    def _split(self, alpha: XAddr, i: int) -> None:
        """Distribute the pieces attached at level-(i-1) vertex ``alpha``
        between its children, honouring the condition (4) deadlines."""
        state = self.state
        c0 = (i, 2 * alpha[1])
        c1 = (i, 2 * alpha[1] + 1)
        snapshot = list(state.pieces_at.get(alpha, ()))
        # Deadline pieces: the usual condition (4) case (sigma two levels
        # up), plus *sideways* pieces whose characteristic address is a
        # horizontal neighbour of alpha rather than alpha itself.  Waiting
        # another round would strand the latter's designated nodes two
        # levels below a non-ancestor — exact distance 3 but outside the
        # Figure 2 neighbourhood N(sigma), the one geometry that used to
        # break condition (3').  Laying them out now, on the child of alpha
        # nearest to sigma, keeps them inside N(sigma).
        def is_deadline(p: Piece) -> bool:
            return p.sigma[0] <= i - 2 or (p.sigma[0] == i - 1 and p.sigma != alpha)

        deadline = [p for p in snapshot if is_deadline(p)]
        normal = [p for p in snapshot if not is_deadline(p)]
        for piece in sorted(deadline, key=lambda p: p.size, reverse=True):
            near, far = self._order_children_by_sigma(c0, c1, piece.sigma)
            placed = self._move_whole(piece, near) or self._move_whole(piece, far)
            if not placed:
                self._overflow_place(piece, (near, far), i)
        # Remaining pieces just pick a side, heaviest first onto the lighter.
        for piece in sorted(normal, key=lambda p: p.size, reverse=True):
            state.detach(piece)
            state.attach(piece.moved_to(self._lighter(c0, c1)))
        self._balance_children(c0, c1, i)

    def _lighter(self, c0: XAddr, c1: XAddr) -> XAddr:
        w0 = self.state.weight.get(c0, 0)
        w1 = self.state.weight.get(c1, 0)
        return c0 if w0 <= w1 else c1

    def _order_children_by_sigma(
        self, c0: XAddr, c1: XAddr, sigma: XAddr
    ) -> tuple[XAddr, XAddr]:
        """Both children ordered by (distance to sigma, weight).

        Deadline placements prefer the child nearer the characteristic
        address; for the plain sigma == grandparent case the distances tie
        and the lighter child wins, recovering the old balance behaviour.
        """
        d0 = self.xtree.distance(c0, sigma, cutoff=4)
        d1 = self.xtree.distance(c1, sigma, cutoff=4)
        d0 = 99 if d0 is None else d0
        d1 = 99 if d1 is None else d1
        w0 = self.state.weight.get(c0, 0)
        w1 = self.state.weight.get(c1, 0)
        if (d0, w0) <= (d1, w1):
            return c0, c1
        return c1, c0

    def _balance_children(self, c0: XAddr, c1: XAddr, i: int) -> None:
        """Fine-tune ``|A(c0)| vs |A(c1)|``: re-attach provisional pieces
        (characteristic address already on level ``i``), then one Lemma 2
        split, mirroring the paper's use of the 4 free places."""
        if not self.config.balance_children:
            return
        state = self.state
        w0 = state.weight.get(c0, 0)
        w1 = state.weight.get(c1, 0)
        if abs(w0 - w1) <= 1:
            return
        heavy, light = (c0, c1) if w0 > w1 else (c1, c0)
        remaining = abs(w0 - w1) // 2
        # Whole re-attachments first: free (no layout).  Only pieces whose
        # characteristic address is the common parent may cross — moving a
        # piece anchored at one child to the other would leave it attached
        # sideways of its sigma, the geometry that eventually breaks
        # condition (3') (its designated nodes would later be laid out two
        # levels below a non-ancestor).  Lemma splits below are always safe
        # because their residuals re-anchor at the placement leaf.
        parent = (c0[0] - 1, c0[1] >> 1)
        for piece in sorted(
            state.pieces_at.get(heavy, ()), key=lambda p: p.size, reverse=True
        ):
            if remaining <= 0:
                break
            movable = piece.sigma == parent or self.config.sideways_balance_moves
            if movable and piece.size <= remaining:
                state.detach(piece)
                state.attach(piece.moved_to(light))
                remaining -= piece.size
        if remaining <= 1:
            return
        candidates = [p for p in state.pieces_at.get(heavy, ()) if p.size > remaining]
        if not candidates:
            return
        piece = min(candidates, key=lambda p: p.size)
        budget = {heavy: state.free(heavy), light: state.free(light)}
        self._split_or_move(piece, remaining, heavy, light, budget)

    def _overflow_place(self, piece: Piece, preferred: tuple[XAddr, ...], i: int) -> None:
        """Defensive: both preferred leaves are full — lay the designated
        nodes on the nearest level-``i`` leaf with room (counted in stats)."""
        state = self.state
        start = preferred[0]
        # BFS over the leaf level by horizontal adjacency.
        width = 1 << i
        for dist in range(1, width):
            for idx in (start[1] - dist, start[1] + dist):
                if 0 <= idx < width:
                    leaf = (i, idx)
                    if state.free(leaf) >= len(piece.designated):
                        if self._move_whole(piece, leaf):
                            state.stats.overflow_placements += 1
                            return
        raise RuntimeError("no leaf can take a deadline piece; capacity accounting bug")

    def _fill(self, leaf: XAddr) -> None:
        """Peel connected blobs from the attached pieces until the leaf holds
        exactly ``capacity`` guests (or the attachments run dry)."""
        state = self.state
        while state.free(leaf) > 0:
            pieces = state.pieces_at.get(leaf, ())
            if not pieces:
                break
            piece = max(pieces, key=lambda p: p.size)
            state.detach(piece)
            before = state.free(leaf)
            state.peel(piece, before, leaf)
            if state.free(leaf) == before:  # peel refused (e.g. 1 slot, 2 designated)
                usable = [
                    p
                    for p in state.pieces_at.get(leaf, ())
                    if len(p.designated) <= state.free(leaf)
                ]
                if not usable:
                    break
                piece = max(usable, key=lambda p: p.size)
                state.detach(piece)
                state.peel(piece, state.free(leaf), leaf)

    def _neighbor_fill(self, leaf: XAddr) -> None:
        """Pull guests from horizontally adjacent leaves' attachments.

        An underfull leaf drains local count mismatches by peeling pieces
        attached next door.  Every such placement stays within distance 2 of
        the piece's characteristic address (sigma of a piece attached at a
        level-``i`` leaf is that leaf, its parent, or its sibling — all at
        most 2 hops from the horizontal neighbour), so dilation 3 and
        condition (3') are preserved.
        """
        state = self.state
        if state.free(leaf) == 0:
            return
        i, a = leaf
        width = 1 << i
        for na in (a - 1, a + 1):
            if not 0 <= na < width:
                continue
            nleaf = (i, na)
            while state.free(leaf) > 0:
                usable = [
                    p
                    for p in state.pieces_at.get(nleaf, ())
                    if len(p.designated) <= state.free(leaf)
                    # only pull pieces whose characteristic address stays in
                    # reach: sigma = uncle-of-neighbour pieces would land at
                    # distance 4 and break the dilation bound
                    and self.xtree.distance(leaf, p.sigma, cutoff=2) is not None
                ]
                if not usable:
                    break
                piece = max(usable, key=lambda p: p.size)
                state.detach(piece)
                state.peel(piece, state.free(leaf), leaf)

    # ------------------------------------------------------------------
    # Final rearrangement
    # ------------------------------------------------------------------
    def _record_history(self, i: int) -> None:
        per_level: dict[int, int] = {}
        for j in range(0, i):
            worst = 0
            for a in range(1 << j):
                w0 = self.state.weight.get((j + 1, 2 * a), 0)
                w1 = self.state.weight.get((j + 1, 2 * a + 1), 0)
                worst = max(worst, abs(w0 - w1))
            per_level[j] = worst
        self.history.append(per_level)

    def _finalize(self) -> None:
        """Place everything still unplaced into the nearest free slots.

        The paper distributes the leftovers of rounds ``r-1, r`` among the
        bottom two levels; this generalised version walks each remaining
        piece in BFS order from its designated nodes and drops every node
        into the closest vertex with room, so feasibility (all guests
        placed, load exactly 16 everywhere) holds unconditionally.  The
        distance travelled beyond the attachment leaf is recorded — it is
        the only place the construction can exceed dilation 3.
        """
        state = self.state
        leaves_with_pieces = [leaf for leaf, ps in state.pieces_at.items() if ps]
        for leaf in sorted(leaves_with_pieces):
            for piece in list(state.pieces_at.get(leaf, ())):
                state.detach(piece)
                self._finalize_piece(piece)

    def _finalize_piece(self, piece: Piece) -> None:
        state = self.state
        order: list[int] = []
        seen = set(piece.designated)
        queue = deque(piece.designated)
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in self.tree.neighbors(v):
                if u in piece.nodes and u not in seen:
                    seen.add(u)
                    queue.append(u)
        for v in order:
            anchors = [state.place[u] for u in self.tree.neighbors(v) if u in state.place]
            anchor = anchors[0] if anchors else piece.leaf
            addr, dist = self._nearest_free(anchor)
            state.place_node(v, addr)
            if dist > 0:
                state.stats.final_spill_count += 1
                state.stats.final_spill_distance = max(
                    state.stats.final_spill_distance, dist
                )

    def _nearest_free(self, start: XAddr) -> tuple[XAddr, int]:
        """BFS over the X-tree for the closest vertex with a free slot.

        Among the free vertices at the *minimal* distance an N-related one
        is preferred — never a farther one, so the preference cannot
        inflate the spill distance (an earlier variant that jumped straight
        to any N-slot let spill chains drift and was measurably worse; see
        bench_ablation.py).
        """
        state = self.state
        if state.free(start) > 0:
            return start, 0
        n_set = (
            self.xtree.condition_neighborhood(start)
            | self.xtree.asymmetric_in_neighbors(start)
        )
        seen = {start}
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            nxt = []
            free_here = []
            for v in frontier:
                for u in self.xtree.neighbors(v):
                    if u in seen:
                        continue
                    seen.add(u)
                    nxt.append(u)
                    if state.free(u) > 0:
                        free_here.append(u)
            if free_here:
                related = [u for u in free_here if u in n_set]
                if related:
                    return related[0], d
                return free_here[0], d
            frontier = nxt
        raise RuntimeError("X-tree is full but guests remain; sizing bug")
