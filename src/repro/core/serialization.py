"""Save and load embeddings as JSON.

A placement computed once (e.g. by the Theorem 1 construction) is a static
routing table a runtime system would ship; this module round-trips
:class:`~repro.core.embedding.Embedding` objects through a compact,
stable JSON document:

* the guest as its parent array,
* the host as a ``(type, parameters)`` descriptor,
* the mapping as one host *canonical index* per guest node (so the file
  stays flat regardless of how exotic the host's node labels are).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..networks import HOST_PARAMS, build_host, host_params
from ..trees.binary_tree import BinaryTree
from .embedding import Embedding

__all__ = ["embedding_to_dict", "embedding_from_dict", "save_embedding", "load_embedding"]

_FORMAT_VERSION = 1


def _host_from_descriptor(desc: dict[str, Any]):
    params = dict(desc)
    kind = params.pop("type", None)
    if kind not in HOST_PARAMS:
        raise ValueError(f"unknown host type {kind!r}")
    if kind == "universal":
        # files written while G_n also had a radius-3 closure name the
        # graph's mode; only the paper graph is left to load
        if params.pop("mode", "paper") != "paper":
            raise ValueError(
                f"universal host mode {desc['mode']!r} is not supported: "
                "only the paper graph exists"
            )
        params.pop("radius", None)
    if set(params) != set(HOST_PARAMS[kind]):
        raise ValueError(
            f"host type {kind!r} takes parameters {list(HOST_PARAMS[kind])}, "
            f"got {sorted(params)}"
        )
    return build_host(kind, [params[p] for p in HOST_PARAMS[kind]])


def embedding_to_dict(embedding: Embedding) -> dict[str, Any]:
    """A JSON-serialisable document describing ``embedding``."""
    host = embedding.host
    return {
        "format": _FORMAT_VERSION,
        "guest_parent": list(embedding.guest.parent_array),
        "host": {"type": host.name, **host_params(host)},
        "phi": [host.index(embedding.phi[v]) for v in embedding.guest.nodes()],
    }


def embedding_from_dict(doc: dict[str, Any]) -> Embedding:
    """Rebuild an :class:`Embedding` from :func:`embedding_to_dict` output."""
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format')!r}")
    guest = BinaryTree(doc["guest_parent"])
    host = _host_from_descriptor(doc["host"])
    phi_idx = doc["phi"]
    if len(phi_idx) != guest.n:
        raise ValueError(f"phi has {len(phi_idx)} entries for {guest.n} guest nodes")
    phi = {v: host.node_at(i) for v, i in enumerate(phi_idx)}
    return Embedding(guest, host, phi)


def save_embedding(embedding: Embedding, path: str | Path) -> None:
    """Write an embedding to ``path`` as JSON."""
    Path(path).write_text(json.dumps(embedding_to_dict(embedding)))


def load_embedding(path: str | Path) -> Embedding:
    """Read an embedding previously written by :func:`save_embedding`."""
    return embedding_from_dict(json.loads(Path(path).read_text()))
