"""Embeddings of a guest binary tree into a host topology, plus quality metrics.

An *embedding* maps each guest node to a host node.  The paper's three cost
measures (section 1):

dilation
    maximum host distance between the images of guest-adjacent nodes — the
    number of clock cycles needed to communicate between formerly adjacent
    processors;
load factor
    maximum number of guest nodes mapped to one host node — the computation
    each host processor must multiplex;
expansion
    ``host size / guest size`` — how much bigger the host must be.

We add *edge congestion* (given shortest-path routing, the maximum number of
guest edges whose routes share one host link), which the simulator in
:mod:`repro.simulate` makes operational.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .._util import node_to_json
from ..networks.base import Topology, bfs_distances_from
from ..trees.binary_tree import BinaryTree

__all__ = ["Embedding", "EmbeddingReport"]


@dataclass(frozen=True)
class EmbeddingReport:
    """Summary of every quality measure of one embedding."""

    n_guest: int
    n_host: int
    dilation: int
    load_factor: int
    expansion: float
    injective: bool
    edge_dilation_histogram: dict[int, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        hist = ", ".join(f"{d}:{c}" for d, c in sorted(self.edge_dilation_histogram.items()))
        return (
            f"guest={self.n_guest} host={self.n_host} dilation={self.dilation} "
            f"load={self.load_factor} expansion={self.expansion:.3f} "
            f"injective={self.injective} edge-dilations=[{hist}]"
        )


class Embedding:
    """A total mapping from the nodes of ``guest`` into the nodes of ``host``."""

    def __init__(self, guest: BinaryTree, host: Topology, phi: Mapping[int, Any]):
        missing = [v for v in guest.nodes() if v not in phi]
        if missing:
            raise ValueError(f"embedding is not total; first missing guest node: {missing[0]}")
        for v in guest.nodes():
            if not host.has_node(phi[v]):
                raise ValueError(f"guest node {v} maps to {phi[v]!r}, not a host vertex")
        self.guest = guest
        self.host = host
        self.phi = {v: phi[v] for v in guest.nodes()}
        # Embeddings are frozen once constructed, so the host-index image of
        # phi is compiled to arrays here and every derived metric
        # (dilation values, routes, congestion) is memoised for the
        # instance's lifetime.
        index = host.index
        self._image_idx = np.fromiter(
            (index(self.phi[v]) for v in guest.nodes()), dtype=np.int64, count=guest.n
        )
        self._edge_list = list(guest.edges())
        self._edge_nodes = np.asarray(self._edge_list, dtype=np.int64).reshape(-1, 2)
        self._edge_dils: np.ndarray | None = None
        self._route_dist_cache: dict[Any, dict[Any, Any]] = {}
        self._link_load: Counter | None = None
        self._phi_json: list[list] | None = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __getitem__(self, guest_node: int):
        return self.phi[guest_node]

    def phi_json(self) -> list[list]:
        """``phi`` as ``[guest node, host label in JSON form]`` pairs
        sorted by guest node — the form checkpoints store.

        Built once per instance (embeddings are frozen; online repair
        builds a new one).  Each call returns a fresh outer list, so a
        caller may reorder or extend it; the pairs themselves are shared
        and must not be mutated.
        """
        if self._phi_json is None:
            self._phi_json = [[g, node_to_json(h)] for g, h in sorted(self.phi.items())]
        return list(self._phi_json)

    def loads(self) -> Counter:
        """Host node -> number of guest nodes mapped there."""
        return Counter(self.phi.values())

    def load_factor(self) -> int:
        """Maximum load over host nodes."""
        return max(self.loads().values())

    def expansion(self) -> float:
        """Host size divided by guest size."""
        return self.host.n_nodes / self.guest.n

    def is_injective(self) -> bool:
        """True when no two guest nodes share a host node."""
        return self.load_factor() == 1

    # ------------------------------------------------------------------
    # Dilation
    # ------------------------------------------------------------------
    def edge_dilation_values(self) -> np.ndarray:
        """Host distance of every guest edge's image, as a read-only array.

        Aligned with ``guest.edges()`` order.  The image indices were
        compiled to arrays at construction, so the whole computation is one
        gather plus one batched call into the shared
        :class:`repro.analysis.oracle.DistanceOracle` — closed-form
        arithmetic where the host has it, grouped BFS rows otherwise.
        Memoised (embeddings are frozen).
        """
        if self._edge_dils is None:
            from ..analysis.oracle import oracle_for  # deferred: analysis imports core

            pairs = self._image_idx[self._edge_nodes]
            dists = oracle_for(self.host).pairs_distances(pairs)
            if dists.size and int(dists.min()) < 0:  # disconnected host: bug
                raise RuntimeError("no path between mapped host nodes")
            dists.setflags(write=False)
            self._edge_dils = dists
        return self._edge_dils

    def edge_dilations(self) -> dict[tuple[int, int], int]:
        """Host distance of every guest edge's image, keyed by guest edge."""
        return dict(zip(self._edge_list, self.edge_dilation_values().tolist()))

    def _distance(self, a: Any, b: Any) -> int:
        """Per-pair host distance with a doubling cutoff.

        Superseded by the batched oracle path of :meth:`edge_dilations`;
        kept as the scalar fallback (``benchmarks/bench_oracle.py`` times
        the oracle against the original pure-BFS variant of this loop).
        """
        cutoff = 4
        while True:
            d = self.host.distance(a, b, cutoff=cutoff)
            if d is not None:
                return d
            cutoff *= 2
            if cutoff > 4 * self.host.n_nodes:  # disconnected host: bug
                raise RuntimeError(f"no path between host nodes {a!r} and {b!r}")

    def dilation(self) -> int:
        """Maximum edge dilation (0 for a single-node guest)."""
        values = self.edge_dilation_values()
        return int(values.max()) if values.size else 0

    def max_dilation_edge(self) -> tuple[tuple[int, int], int] | None:
        """The guest edge realising the dilation, for diagnostics."""
        values = self.edge_dilation_values()
        if not values.size:
            return None
        at = int(values.argmax())
        return self._edge_list[at], int(values[at])

    # ------------------------------------------------------------------
    # Congestion (shortest-path routing)
    # ------------------------------------------------------------------
    def link_load(self) -> Counter:
        """Guest edges routed through each host link (canonically ordered).

        Routes are deterministic shortest paths (lexicographically smallest
        next hop by host index), matching the simulator's router so that the
        metric predicts simulated contention.  Keys are host node pairs
        ``(a, b)`` with ``index(a) < index(b)``; the full Counter feeds the
        analysis tables.  Embeddings are frozen, so both the per-destination
        distance tables and the resulting Counter are memoised on the
        instance — repeated congestion queries are O(1).
        """
        if self._link_load is None:
            link_use: Counter = Counter()
            for u, v in self.guest.edges():
                a, b = self.phi[u], self.phi[v]
                for x, y in self._route(a, b):
                    key = (x, y) if self.host.index(x) < self.host.index(y) else (y, x)
                    link_use[key] += 1
            self._link_load = link_use
        return self._link_load

    def edge_congestion(self) -> int:
        """Max, over host links, of guest edges routed through that link."""
        return max(self.link_load().values(), default=0)

    def _route(self, a: Any, b: Any) -> list[tuple[Any, Any]]:
        """Deterministic shortest path from ``a`` to ``b`` as a link list.

        Per-destination BFS tables are memoised on the instance (the
        embedding never changes), so routing all guest edges costs one BFS
        per distinct destination, ever.
        """
        if a == b:
            return []
        dist_to_b = self._route_dist_cache.get(b)
        if dist_to_b is None:
            dist_to_b = bfs_distances_from(self.host.neighbors, b)
            self._route_dist_cache[b] = dist_to_b
        links = []
        cur = a
        while cur != b:
            nxt = min(
                (w for w in self.host.neighbors(cur) if dist_to_b[w] == dist_to_b[cur] - 1),
                key=self.host.index,
            )
            links.append((cur, nxt))
            cur = nxt
        return links

    # ------------------------------------------------------------------
    # Composition & reporting
    # ------------------------------------------------------------------
    def compose(self, outer_phi: Mapping[Any, Any], outer_host: Topology) -> Embedding:
        """Compose with a host-to-host mapping: guest -> host -> outer host.

        This is how Theorem 3 arises: the Theorem 1 embedding into X(r)
        composed with Lemma 3's X(r) -> Q_{r+1} map.
        """
        phi = {v: outer_phi[self.phi[v]] for v in self.guest.nodes()}
        return Embedding(self.guest, outer_host, phi)

    def report(self) -> EmbeddingReport:
        """Compute every quality measure at once."""
        values = self.edge_dilation_values()
        uniq, counts = np.unique(values, return_counts=True)
        hist = dict(zip(uniq.tolist(), counts.tolist()))
        return EmbeddingReport(
            n_guest=self.guest.n,
            n_host=self.host.n_nodes,
            dilation=int(values.max()) if values.size else 0,
            load_factor=self.load_factor(),
            expansion=self.expansion(),
            injective=self.load_factor() == 1,
            edge_dilation_histogram=hist,  # np.unique output is already sorted
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding(guest_n={self.guest.n}, host={self.host!r})"
