"""ASCII rendering of X-trees and embeddings for terminals and docs.

Small, dependency-free visual aids: the layered X-tree picture (like the
paper's Figure 1), per-vertex load maps of an embedding, and a compact
dilation summary bar.  Used by the ``xtree-embed show`` CLI subcommand and
the examples.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..networks.xtree import XTree, addr_to_string

if TYPE_CHECKING:  # pragma: no cover - types only; repro.core imports this package
    from ..core.embedding import Embedding

__all__ = ["render_xtree", "render_loads", "render_dilation_bar"]


def render_xtree(xtree: XTree, max_height: int = 5) -> str:
    """A layered picture of X(r): vertices per level, cross edges implied.

    Levels beyond ``max_height`` are summarised; each vertex prints its
    binary address (the root as ``eps``).
    """
    lines: list[str] = [f"X({xtree.height}):"]
    shown = min(xtree.height, max_height)
    width = 2 ** (shown + 1) * 4
    for level in range(shown + 1):
        labels = [addr_to_string((level, i)) or "eps" for i in range(1 << level)]
        cell = max(4, width // max(1, len(labels)))
        row = "".join(label.center(cell) for label in labels)
        lines.append(row.rstrip())
        if level < shown:
            connector = "".join("|".center(cell) for _ in labels)
            lines.append(connector.rstrip())
    if xtree.height > max_height:
        lines.append(f"... ({xtree.height - max_height} more levels, "
                     f"{xtree.n_nodes} vertices total)")
    lines.append("(each level's vertices are also chained left-to-right by cross edges)")
    return "\n".join(lines)


def render_loads(embedding: Embedding, max_height: int = 5) -> str:
    """Per-vertex guest counts of an X-tree embedding, level by level."""
    host = embedding.host
    if not isinstance(host, XTree):
        raise TypeError("render_loads draws X-tree hosts only")
    loads = embedding.loads()
    lines = [f"guests per vertex of X({host.height}):"]
    shown = min(host.height, max_height)
    for level in range(shown + 1):
        counts = [loads.get((level, i), 0) for i in range(1 << level)]
        if len(counts) <= 16:
            body = " ".join(f"{c:2d}" for c in counts)
        else:
            body = (
                f"{len(counts)} vertices, loads min {min(counts)} / max {max(counts)}"
            )
        lines.append(f"  level {level}: {body}")
    if host.height > max_height:
        rest = [
            loads.get(v, 0)
            for v in host.nodes()
            if v[0] > shown
        ]
        lines.append(
            f"  levels {shown + 1}..{host.height}: min {min(rest)} / max {max(rest)}"
        )
    return "\n".join(lines)


def render_dilation_bar(embedding: Embedding, width: int = 40) -> str:
    """Histogram bar chart of edge dilations."""
    hist = Counter(embedding.edge_dilations().values())
    total = sum(hist.values())
    if not total:
        return "(no edges)"
    lines = ["edge dilation histogram:"]
    for d in sorted(hist):
        count = hist[d]
        bar = "#" * max(1, round(width * count / total))
        lines.append(f"  {d}: {count:6d} {bar}")
    return "\n".join(lines)
