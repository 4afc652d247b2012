"""The distance-oracle subsystem: closed forms, CSR BFS, batching, caching.

Two proof obligations from the oracle PR:

* every closed-form ``distance()`` override equals BFS — exhaustively on
  all pairs of small instances, property-based on larger ones;
* ``DistanceOracle`` (vectorised, batched, cached) agrees with the
  oracle-independent pure-Python engine on every topology in the registry.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.distances import all_pairs_distances
from repro.analysis.oracle import DistanceOracle, oracle_for
from repro.networks import (
    Butterfly,
    CubeConnectedCycles,
    ShuffleExchange,
    TOPOLOGIES,
    XTree,
    registry_instances,
)
from repro.networks.base import Topology, bfs_distance


# ----------------------------------------------------------------------
# Closed forms == BFS, exhaustively on all pairs of small instances
# ----------------------------------------------------------------------
EXHAUSTIVE_CASES = [
    *[XTree(r) for r in range(6)],  # the ISSUE's r <= 5 floor
    *[Butterfly(d) for d in range(1, 5)],
    *[CubeConnectedCycles(d) for d in range(1, 6)],
    *[ShuffleExchange(d) for d in range(1, 7)],
]


@pytest.mark.parametrize("topology", EXHAUSTIVE_CASES, ids=repr)
def test_closed_form_equals_bfs_all_pairs(topology):
    assert topology.has_closed_form_distance
    nodes = list(topology.nodes())
    for u, v in itertools.combinations(nodes, 2):
        d = topology.distance(u, v)
        assert d == bfs_distance(topology.neighbors, u, v), (u, v)
        # cutoff contract: exact at the boundary, None strictly beyond
        assert topology.distance(u, v, cutoff=d) == d
        assert topology.distance(u, v, cutoff=d - 1) is None
    for u in nodes:
        assert topology.distance(u, u) == 0


# ----------------------------------------------------------------------
# Closed forms == BFS, property-based spot checks on larger instances
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_xtree_closed_form_property(data):
    x = XTree(8)
    n = x.n_nodes
    u = x.node_at(data.draw(st.integers(0, n - 1)))
    v = x.node_at(data.draw(st.integers(0, n - 1)))
    assert x.distance(u, v) == bfs_distance(x.neighbors, u, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_butterfly_closed_form_property(data):
    b = Butterfly(6)
    n = b.n_nodes
    u = b.node_at(data.draw(st.integers(0, n - 1)))
    v = b.node_at(data.draw(st.integers(0, n - 1)))
    assert b.distance(u, v) == bfs_distance(b.neighbors, u, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ccc_closed_form_property(data):
    c = CubeConnectedCycles(7)
    n = c.n_nodes
    u = c.node_at(data.draw(st.integers(0, n - 1)))
    v = c.node_at(data.draw(st.integers(0, n - 1)))
    assert c.distance(u, v) == bfs_distance(c.neighbors, u, v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shuffle_exchange_closed_form_property(data):
    s = ShuffleExchange(9)
    u = data.draw(st.integers(0, s.n_nodes - 1))
    v = data.draw(st.integers(0, s.n_nodes - 1))
    assert s.distance(u, v) == bfs_distance(s.neighbors, u, v)


# ----------------------------------------------------------------------
# DistanceOracle vs the pure-Python reference engine, whole registry
# ----------------------------------------------------------------------
def test_registry_covers_every_topology_class():
    assert set(TOPOLOGIES) == set(registry_instances())
    for name, cls in TOPOLOGIES.items():
        assert cls.name == name
        assert issubclass(cls, Topology)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_oracle_matches_reference_engine(name):
    topology = registry_instances()[name]
    reference = all_pairs_distances(topology, engine="python")
    oracle = DistanceOracle(topology)
    assert (oracle.all_pairs() == reference).all()
    # batched pair queries agree on every pair, including (i, i)
    n = topology.n_nodes
    iu, iv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pairs = np.column_stack((iu.ravel(), iv.ravel()))
    assert (oracle.pairs_distances(pairs) == reference.ravel()).all()
    # label-level scalar queries go through the same machinery
    for i, j in [(0, n - 1), (n // 2, n // 3)]:
        assert oracle.distance(topology.node_at(i), topology.node_at(j)) == reference[i, j]


def test_all_pairs_distances_engines_agree():
    for topology in registry_instances().values():
        assert (
            all_pairs_distances(topology)
            == all_pairs_distances(topology, engine="python")
        ).all()
    with pytest.raises(ValueError, match="unknown engine"):
        all_pairs_distances(XTree(2), engine="bogus")


# ----------------------------------------------------------------------
# Oracle mechanics: CSR, cache, batching edge cases
# ----------------------------------------------------------------------
def test_csr_layout():
    x = XTree(3)
    oracle = DistanceOracle(x)
    assert oracle.indptr.dtype == np.int32 and oracle.indices.dtype == np.int32
    assert oracle.indptr[0] == 0 and oracle.indptr[-1] == oracle.indices.size
    for u in x.nodes():
        i = x.index(u)
        row = set(oracle.indices[oracle.indptr[i] : oracle.indptr[i + 1]].tolist())
        assert row == {x.index(v) for v in x.neighbors(u)}


def test_row_cache_lru_bounded(monkeypatch):
    import repro.analysis.oracle as oracle_mod
    from repro.networks import DeBruijn

    monkeypatch.setattr(oracle_mod, "ORACLE_CACHE_ROWS", 4)
    g = DeBruijn(5)  # no closed form: rows actually get computed
    oracle = DistanceOracle(g)
    for s in range(10):
        oracle.row(s)
    assert oracle.cached_rows == 4
    r9 = oracle.row(9)
    assert oracle.row(9) is r9  # cache hit returns the memoised row
    assert not r9.flags.writeable  # cached rows are frozen
    # rows() reuses the cache and survives batches larger than the cache
    batch = oracle.rows(np.arange(10))
    ref = all_pairs_distances(g, engine="python")
    assert (batch == ref[:10]).all()


def test_pairs_distances_validates_and_handles_empty():
    oracle = DistanceOracle(XTree(2))
    assert oracle.pairs_distances(np.empty((0, 2), dtype=np.int64)).size == 0
    with pytest.raises(ValueError, match="index array"):
        oracle.pairs_distances(np.zeros((3, 3), dtype=np.int64))


def test_oracle_for_is_memoised_per_instance():
    x = XTree(3)
    assert oracle_for(x) is oracle_for(x)
    assert oracle_for(XTree(3)) is not oracle_for(x)  # identity, not equality


def test_oracle_for_entry_dies_with_its_topology():
    # the memo must not keep its topology alive: a long-lived worker builds
    # a fresh host per job, and each oracle holds dense next-hop tables
    t = XTree(4)
    oracle_for(t).next_hop_tables()
    t_ref, oracle_ref = weakref.ref(t), weakref.ref(oracle_for(t))
    del t
    gc.collect()
    assert t_ref() is None
    assert oracle_ref() is None


def test_unreachable_distance_is_minus_one():
    """CCC(1) is connected, but a 1-node topology row is all zeros; build a
    disconnected case from a 2-node butterfly row restriction instead: the
    oracle reports -1 for unreachable nodes (none exist in the registry, so
    synthesise one)."""

    class TwoIslands(Topology):
        name = "two-islands"

        @property
        def n_nodes(self):
            return 2

        def nodes(self):
            return iter((0, 1))

        def neighbors(self, node):
            return iter(())

        def index(self, node):
            return node

        def node_at(self, idx):
            return idx

    oracle = DistanceOracle(TwoIslands())
    row = oracle.row(0)
    assert row[0] == 0 and row[1] == -1
    assert (oracle.all_pairs() == np.array([[0, -1], [-1, 0]])).all()


class TestCacheConfiguration:
    """The row-cache capacity is the module constant."""

    def test_default_capacity(self):
        from repro.analysis.oracle import ORACLE_CACHE_ROWS

        oracle = DistanceOracle(XTree(3))
        assert oracle.cache_info()["capacity"] == ORACLE_CACHE_ROWS == 256
