"""The :class:`Separator` protocol and the paper's reference implementation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection

from ..obs.spans import counter_inc, span
from ..trees.binary_tree import BinaryTree
from .lemma import Separation, lemma2_split

__all__ = ["Separator", "PaperSeparator"]


class Separator(ABC):
    """One balanced-split strategy for tree pieces.

    ``split`` must return a :class:`Separation` obeying the lemma
    contract the embedder relies on: ``side1``/``side2`` partition the
    universe, ``side2`` approximates ``delta``, both designated nodes
    ``r1``/``r2`` are in ``s1 | s2``, the cut edges are exactly the
    side-crossing edges oriented ``(a in s1, b in s2)``, and each
    leftover component attaches to at most two S nodes of its side.
    """

    #: registry key, also used in spans/counters and the CLI choice
    name: str

    @abstractmethod
    def split(
        self,
        tree: BinaryTree,
        r1: int,
        r2: int,
        delta: int,
        universe: Collection[int] | None = None,
    ) -> Separation:
        """Split the piece ``universe`` of ``tree`` with designated nodes
        ``r1``/``r2`` so that side 2 has about ``delta`` nodes."""


class PaperSeparator(Separator):
    """Lemmas 1/2 exactly as the pipeline has always run them.

    A thin instrumented wrapper around
    :func:`repro.separators.lemma.lemma2_split`; the returned separation
    is bit-identical to the un-wrapped call, so selecting
    ``--separator paper`` reproduces the default pipeline exactly.
    """

    name = "paper"

    def split(
        self,
        tree: BinaryTree,
        r1: int,
        r2: int,
        delta: int,
        universe: Collection[int] | None = None,
    ) -> Separation:
        n = len(universe) if universe is not None else tree.n
        with span("separator.split", separator=self.name, n=n, delta=delta):
            sep = lemma2_split(tree, r1, r2, delta, universe=universe)
        counter_inc("separator.paper.calls")
        if sep.n_promotions:
            counter_inc("separator.paper.promotions", sep.n_promotions)
        return sep
