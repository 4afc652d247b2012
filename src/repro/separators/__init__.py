"""Tree separators for the embedding pipeline.

The paper's embedding (Theorem 1) repeatedly splits tree pieces with the
Lemma 1/2 constructions (``find1``/``find2``) of
:mod:`repro.separators.lemma`, which :mod:`repro.core` re-exports.  This
package turns that single hard-wired choice into a :class:`Separator`
protocol:

* :class:`PaperSeparator` — the reference implementation, delegating to
  :func:`~repro.separators.lemma.lemma2_split` verbatim (bit-identical to
  the default pipeline);
* :class:`FlowSeparator` — a max-flow/min-cut vertex separator (pure
  python Dinic on the split-node capacity graph, FlowCutter-style
  terminal piercing for balance; no networkx).

Both honour the same contract — a :class:`~repro.separators.lemma.Separation`
whose sides partition the universe, whose designated nodes land in the S
sets, and whose leftover components attach to at most two S nodes — so
either can drive ``embed_binary_tree(..., separator=...)`` or the CLI's
``--separator {paper,flow}``.  Every call is wrapped in an observability
span and feeds the ``separator.*`` counters.  The package imports only
:mod:`repro.trees` and :mod:`repro.obs`.
"""

from __future__ import annotations

from .base import PaperSeparator, Separator
from .flow import DinicMaxFlow, FlowSeparator, min_vertex_cut

#: registry of selectable separator implementations, keyed by name
SEPARATORS: dict[str, type[Separator]] = {
    PaperSeparator.name: PaperSeparator,
    FlowSeparator.name: FlowSeparator,
}

__all__ = [
    "Separator",
    "PaperSeparator",
    "FlowSeparator",
    "DinicMaxFlow",
    "min_vertex_cut",
    "SEPARATORS",
    "make_separator",
]


def make_separator(which: str | Separator | None) -> Separator | None:
    """Resolve a CLI/user separator choice to an instance.

    Accepts a registry name (``"paper"``/``"flow"``), an instance
    (returned unchanged), or ``None`` (the embedder's built-in Lemma 2
    path, also bit-identical to ``"paper"``).
    """
    if which is None or isinstance(which, Separator):
        return which
    try:
        cls = SEPARATORS[which]
    except KeyError:
        raise ValueError(
            f"unknown separator {which!r}; expected one of "
            f"{sorted(SEPARATORS)}"
        ) from None
    return cls()
