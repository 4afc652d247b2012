"""The universal graph as a first-class host: topology registry, the
distance closed form, the vectorised oracle, runtime hosting, and the
shipped scenario."""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.oracle import DistanceOracle, _neighbor_csr, _sweep_next_hops
from repro.core.universal import lift_onto_slots
from repro.networks import TOPOLOGIES, build_host, host_params
from repro.networks.base import bfs_distances_from
from repro.networks.universal import (
    PAPER_DEGREE_BOUND,
    UNIVERSAL_SLOTS,
    UniversalGraph,
    universal_graph_size,
)
from repro.runtime import JobSpec, Runtime
from repro.service import Scenario, run_scenario
from repro.simulate import VECTOR_MAX_NODES, Message, SynchronousNetwork
from repro.simulate.vector_engine import vector_deliver_scheduled, vector_supported

REPO = Path(__file__).resolve().parent.parent


class TestTopologyRegistry:
    def test_registered(self):
        assert "universal" in TOPOLOGIES
        host = TOPOLOGIES["universal"](7)
        assert isinstance(host, UniversalGraph)
        assert host.n_nodes == universal_graph_size(7) == 112

    def test_spec_args_round_trip(self):
        host = UniversalGraph(8)
        assert host_params(host) == {"t": 8}
        again = build_host("universal", list(host_params(host).values()))
        assert again.n_nodes == host.n_nodes

    def test_paper_degree_bound_constant(self):
        assert PAPER_DEGREE_BOUND == 25 * UNIVERSAL_SLOTS + 15 == 415


class TestDistanceClosedForm:
    def test_identical_and_same_group(self):
        g = UniversalGraph(6)
        u = g.node_at(0)
        v = g.node_at(1)  # same address, different slot: clique edge
        assert g.distance(u, u) == 0
        assert g.distance(u, v) == 1

    def test_matches_bfs(self):
        g = UniversalGraph(6)
        rng = random.Random(0)
        nodes = list(g.nodes())
        for _ in range(12):
            src = rng.choice(nodes)
            bfs = bfs_distances_from(g.neighbors, src)
            for _ in range(20):
                dst = rng.choice(nodes)
                assert g.distance(src, dst) == bfs[dst]

    def test_quotient_all_pairs_consistent(self):
        g = UniversalGraph(6)
        q = g.quotient_all_pairs()
        for ai in range(0, g.n_nodes, UNIVERSAL_SLOTS):
            for bi in range(0, g.n_nodes, UNIVERSAL_SLOTS):
                u, v = g.node_at(ai), g.node_at(bi)
                if u[0] != v[0]:
                    assert (
                        g.distance(u, v)
                        == q[ai // UNIVERSAL_SLOTS][bi // UNIVERSAL_SLOTS]
                    )


class TestOracle:
    def test_vectorised_matches_bfs(self):
        import numpy as np

        g = UniversalGraph(7)
        oracle = DistanceOracle(g)
        rng = random.Random(1)
        n = g.n_nodes
        pairs = np.array(
            [(rng.randrange(n), rng.randrange(n)) for _ in range(200)],
            dtype=np.int64,
        )
        vec = oracle.pairs_distances(pairs)
        for (ai, bi), d in zip(pairs, vec):
            bfs = bfs_distances_from(g.neighbors, g.node_at(int(ai)))
            assert d == bfs[g.node_at(int(bi))]

    def test_quotient_memoised(self):
        import numpy as np

        g = UniversalGraph(6)
        oracle = DistanceOracle(g)
        assert oracle._universal_quotient is None
        pair = np.array([[0, g.n_nodes - 1]], dtype=np.int64)
        oracle.pairs_distances(pair)
        memo = oracle._universal_quotient
        assert memo is not None
        oracle.pairs_distances(pair[:, ::-1].copy())
        assert oracle._universal_quotient is memo


class TestQuotientTables:
    """G_n's CSR and routing tables come from its address quotient; the
    generic neighbour scan and all-pairs sweep stay the reference."""

    @pytest.mark.parametrize("t", range(5, 10), ids=lambda t: f"{t}-paper")
    def test_equal_to_reference_sweep(self, t):
        g = UniversalGraph(t)
        oracle = DistanceOracle(g)
        indptr, indices = _neighbor_csr(g)
        ref_eid = _sweep_next_hops(indptr, indices, oracle.all_pairs())
        assert np.array_equal(oracle.indptr, indptr)
        assert np.array_equal(oracle.indices, indices)
        eid = oracle.next_hop_edges()
        assert eid is oracle.next_hop_edges()
        assert eid.dtype == np.int32
        assert not eid.flags.writeable
        assert np.array_equal(eid, ref_eid)
        # G_n is connected: every vertex has a hop towards every other one
        assert np.array_equal(eid < 0, np.eye(g.n_nodes, dtype=bool))

    def test_t11_hops_against_bfs(self):
        g = UniversalGraph(11)
        oracle = DistanceOracle(g)
        eid = oracle.next_hop_edges()
        indptr, indices = oracle.indptr, oracle.indices
        nh = np.where(eid >= 0, indices[eid], -1)
        rng = random.Random(11)
        dests = rng.sample(range(g.n_nodes), 6)
        # G_n is undirected, so BFS from d gives every distance to d
        for d, to_d in zip(dests, oracle.rows(dests)):
            same_group = d - d % UNIVERSAL_SLOTS + (d + 5) % UNIVERSAL_SLOTS
            related = int(indices[indptr[d + 1] - 1])  # another address
            sources = [d, same_group, related] + rng.sample(range(g.n_nodes), 40)
            for u in sources:
                if u == d:
                    assert nh[u, d] == eid[u, d] == -1
                    continue
                nbrs = indices[indptr[u] : indptr[u + 1]]
                closer = nbrs[to_d[nbrs] == to_d[u] - 1]
                assert nh[u, d] in nbrs and to_d[nh[u, d]] == to_d[u] - 1
                assert nh[u, d] == closer.min(), (u, d)
                assert indptr[u] <= eid[u, d] < indptr[u + 1]

    def test_t11_kernel_matches_bfs_scan(self):
        g = UniversalGraph(11)
        rng = random.Random(12)
        dests = rng.sample(range(g.n_nodes), 4)
        schedule = [
            (
                rng.randrange(4),
                Message(
                    i, g.node_at(rng.randrange(g.n_nodes)), g.node_at(rng.choice(dests))
                ),
            )
            for i in range(80)
        ]
        kernel_net = SynchronousNetwork(g)
        assert vector_supported(kernel_net, None, None, None) is None
        kernel = vector_deliver_scheduled(kernel_net, list(schedule))
        scan_net = SynchronousNetwork(g)
        scan_net._dense_nh = False  # per-destination BFS tables, no oracle
        assert scan_net.deliver_classic(list(schedule)) == kernel
        assert sum(kernel.link_traffic.values()) > 0


class TestRuntimeHost:
    def _spec(self, **over):
        doc = {
            "name": "span",
            "program": "reduction",
            "tree_n": 112,
            "capacity": 16,
        }
        doc.update(over)
        return JobSpec.from_obj(doc)

    def test_admit_and_run(self):
        rt = Runtime(UniversalGraph(7))
        job = rt.admit(self._spec())
        phi = job.embedding.phi
        assert len(phi) == 112
        # every guest node lands on a (address, slot) pair of the host
        host_nodes = set(UniversalGraph(7).nodes())
        assert set(phi.values()) <= host_nodes
        res = rt.run()
        assert res.complete
        (j,) = res.jobs
        assert j["n_delivered"] == j["n_messages"]

    def test_height_mismatch_rejected(self):
        rt = Runtime(UniversalGraph(7))
        with pytest.raises(ValueError, match="quotients through"):
            rt.admit(self._spec(height=5))

    def test_capacity_above_slots_rejected(self):
        rt = Runtime(UniversalGraph(7))
        with pytest.raises(ValueError, match="slots per X-tree vertex"):
            rt.admit(self._spec(capacity=17))

    def test_checkpoint_restore_bit_identical(self):
        rt = Runtime(UniversalGraph(7))
        rt.admit(self._spec())
        for _ in range(3):
            rt.step()
        state = json.loads(json.dumps(rt.checkpoint()))
        assert state["host"] == {"name": "universal", "args": [7]}
        rt2 = Runtime.restore(state)
        for r in (rt, rt2):
            for _ in range(3):
                r.step()
        assert rt.checkpoint() == rt2.checkpoint()


class TestLiftOntoSlots:
    def test_lift_is_injective(self):
        from repro.core import embed_binary_tree

        g = UniversalGraph(7)
        tree_n = universal_graph_size(7)
        from repro.trees import make_tree

        tree = make_tree("random", tree_n, seed=0)
        result = embed_binary_tree(tree, height=g.height, capacity=16)
        lifted = lift_onto_slots(result.embedding, g)
        phi = lifted.phi
        assert len(set(phi.values())) == len(phi) == tree_n


def _largest_t_within(max_nodes: int) -> int:
    # the same derivation bench_universal uses for its largest G_n
    return max(t for t in range(5, 16) if universal_graph_size(t) <= max_nodes)


class TestLargestFeasible:
    def test_default_tracks_vector_bound(self):
        # the dense-table bound is sized so Theorem 4's G_n at t = 11
        # (2032 vertices) still runs on the vector kernel, and t = 12 not
        assert universal_graph_size(11) <= VECTOR_MAX_NODES < universal_graph_size(12)
        assert _largest_t_within(VECTOR_MAX_NODES) == 11

    def test_explicit_bound(self):
        assert _largest_t_within(2048) == 11
        # a bound equal to a G_n's size admits that G_n
        assert _largest_t_within(112) == 7


class TestShippedScenario:
    def test_universal_route_completes(self):
        scenario = Scenario.from_json(REPO / "scenarios" / "universal_route.json")
        res = run_scenario(scenario)
        assert res.complete
        assert {j["name"] for j in res.jobs} == {"span", "gossip"}
        for j in res.jobs:
            assert j["n_delivered"] == j["n_messages"]
