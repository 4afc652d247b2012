"""Incremental routing-cache invalidation == full rebuild, under faults.

``SynchronousNetwork`` drops a cached per-destination distance table only
when a failed/healed link can actually stale it.  These tests drive
randomised fail/heal sequences — with live route queries in between, so
stale tables would actually be observed — and compare every outcome
against a from-scratch network with the same failed-link set.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import Grid2D, Hypercube, XTree
from repro.simulate import Message, SynchronousNetwork, UnreachableError

TOPOLOGY_FACTORIES = [
    lambda: Grid2D(3, 4),
    lambda: XTree(3),
    lambda: Hypercube(3),
]


def _fresh_equivalent(net: SynchronousNetwork) -> SynchronousNetwork:
    """A cold network with the same topology and failed-link set."""
    return SynchronousNetwork(
        net.topology, link_capacity=net.link_capacity, failed_links=[tuple(f) for f in net.failed]
    )


def _assert_routing_equivalent(net, fresh, queries):
    for src, dst in queries:
        if src == dst:
            continue
        try:
            expected = fresh.route(src, dst)
        except UnreachableError:
            with pytest.raises(UnreachableError):
                net.route(src, dst)
            continue
        assert net.route(src, dst) == expected, (src, dst, sorted(map(sorted, net.failed)))
        # the cached table itself must be exact, not merely route-compatible
        assert net._dist_table(dst) == fresh._dist_table(dst)


@pytest.mark.parametrize("make_topology", TOPOLOGY_FACTORIES)
@pytest.mark.parametrize("seed", range(6))
def test_randomised_fail_heal_matches_full_rebuild(make_topology, seed):
    topology = make_topology()
    net = SynchronousNetwork(topology)
    rng = random.Random(seed)
    edges = [tuple(e) for e in topology.edges()]
    nodes = list(topology.nodes())

    # warm every destination's table first, so later events must invalidate
    for dst in nodes:
        net._dist_table(dst)

    for _ in range(30):
        u, v = rng.choice(edges)
        if frozenset((u, v)) in net.failed:
            (net.heal_link if rng.random() < 0.8 else net.fail_link)(u, v)
        elif rng.random() < 0.6:
            net.fail_link(u, v)
        else:
            net.heal_link(u, v)  # heal of a live link: must be a no-op
        queries = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(6)]
        _assert_routing_equivalent(net, _fresh_equivalent(net), queries)


@pytest.mark.parametrize("make_topology", TOPOLOGY_FACTORIES)
def test_incremental_invalidation_keeps_unaffected_tables(make_topology):
    """The point of the optimisation: a fault far from a destination keeps
    that destination's warm table object alive (no gratuitous rebuild)."""
    topology = make_topology()
    net = SynchronousNetwork(topology)
    for dst in topology.nodes():
        net._dist_table(dst)
    warm = dict(net._dist_to)
    u, v = next(iter(topology.edges()))
    net.fail_link(u, v)
    kept = sum(1 for dst, table in net._dist_to.items() if warm.get(dst) is table)
    assert kept > 0  # some tables survived verbatim
    # ... and all surviving tables are still exact
    fresh = _fresh_equivalent(net)
    for dst in net._dist_to:
        assert net._dist_table(dst) == fresh._dist_table(dst)


def test_unreachable_error_after_partition_and_recovery():
    net = SynchronousNetwork(Grid2D(1, 3))
    net.route((0, 0), (0, 2))  # warm the cache
    net.fail_link((0, 0), (0, 1))
    with pytest.raises(UnreachableError):
        net.deliver([Message(0, (0, 0), (0, 2))])
    net.heal_link((0, 0), (0, 1))
    assert net.deliver([Message(1, (0, 0), (0, 2))]).cycles == 2
    # partition the other side; tables cached for (0,0) must not leak back
    net.fail_link((0, 1), (0, 2))
    with pytest.raises(UnreachableError):
        net.route((0, 0), (0, 2))
    net.heal_link((0, 1), (0, 2))
    assert net.route((0, 0), (0, 2)) == [(0, 0), (0, 1), (0, 2)]


def test_heal_link_is_restore_link():
    net = SynchronousNetwork(Grid2D(2, 2))
    assert net.heal_link.__func__ is net.restore_link.__func__


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_fail_heal_delivery_parity(data):
    """Message delivery through an incrementally-invalidated network equals
    delivery through a cold rebuild, for arbitrary fault scripts."""
    q = Hypercube(3)
    net = SynchronousNetwork(q)
    edges = [tuple(e) for e in q.edges()]
    for _ in range(data.draw(st.integers(0, 10))):
        u, v = data.draw(st.sampled_from(edges))
        if frozenset((u, v)) in net.failed:
            net.heal_link(u, v)
        else:
            net.fail_link(u, v)
        src = data.draw(st.integers(0, 7))
        dst = data.draw(st.integers(0, 7))
        if src == dst:
            continue
        fresh = _fresh_equivalent(net)
        try:
            expected = fresh.deliver([Message(0, src, dst)])
        except UnreachableError:
            with pytest.raises(UnreachableError):
                net.deliver([Message(0, src, dst)])
            continue
        got = net.deliver([Message(0, src, dst)])
        assert got.delivery_cycle == expected.delivery_cycle
        assert got.link_traffic == expected.link_traffic


# ----------------------------------------------------------------------
# Next-hop memos and the live adjacency
# ----------------------------------------------------------------------
def _live_row(net, u):
    """``u``'s live neighbours, read afresh off the failed set."""
    return tuple(v for v in net.topology.neighbors(u) if frozenset((u, v)) not in net.failed)


def _random_event(net, rng, edges, nodes):
    """One random fail or heal of a link or a node."""
    roll = rng.random()
    if roll < 0.1:
        net.fail_node(rng.choice(nodes))
    elif roll < 0.2:
        net.heal_node(rng.choice(nodes))
    else:
        u, v = rng.choice(edges)
        if frozenset((u, v)) in net.failed:
            (net.heal_link if rng.random() < 0.8 else net.fail_link)(u, v)
        elif rng.random() < 0.6:
            net.fail_link(u, v)
        else:
            net.heal_link(u, v)


@pytest.mark.parametrize("make_topology", TOPOLOGY_FACTORIES)
@pytest.mark.parametrize("seed", range(4))
def test_memoised_next_hops_match_cold_network(make_topology, seed):
    """Every memoised next hop equals a cold network's after every event.
    The dense table is off, so fault-free stretches read the memo too."""
    topology = make_topology()
    net = SynchronousNetwork(topology)
    net._dense_nh = False
    rng = random.Random(seed)
    edges = [tuple(e) for e in topology.edges()]
    nodes = list(topology.nodes())
    pairs = [(u, d) for u in nodes for d in nodes if u != d]
    for _ in range(25):
        _random_event(net, rng, edges, nodes)
        cold = _fresh_equivalent(net)
        for u, d in pairs:
            try:
                expected = cold.next_hop(u, d)
            except UnreachableError:
                with pytest.raises(UnreachableError):
                    net.next_hop(u, d)
                continue
            assert net.next_hop(u, d) == expected, (u, d, sorted(map(sorted, net.failed)))


@pytest.mark.parametrize("make_topology", TOPOLOGY_FACTORIES)
@pytest.mark.parametrize("seed", range(3))
def test_live_adjacency_matches_failed_set(make_topology, seed):
    """``live_neighbors`` is the topology's order minus the failed links,
    after every link and node event."""
    topology = make_topology()
    net = SynchronousNetwork(topology)
    rng = random.Random(seed)
    edges = [tuple(e) for e in topology.edges()]
    nodes = list(topology.nodes())
    net.route(nodes[0], nodes[-1])  # builds the adjacency before any event
    for _ in range(40):
        _random_event(net, rng, edges, nodes)
        for u in nodes:
            assert net.live_neighbors(u) == _live_row(net, u), u


@pytest.mark.parametrize("make_topology", TOPOLOGY_FACTORIES)
def test_fail_node_returns_live_links_in_topology_order(make_topology):
    topology = make_topology()
    nodes = list(topology.nodes())
    victim = nodes[len(nodes) // 2]
    first = next(iter(topology.neighbors(victim)))
    net = SynchronousNetwork(topology, failed_links=[(victim, first)])
    expected = [(victim, v) for v in topology.neighbors(victim) if v != first]
    assert net.fail_node(victim) == expected
    assert net.live_neighbors(victim) == ()


def _memo_grid():
    """Grid2D(3, 4) routing towards (0, 0) through the memo: (1, 1) has two
    predecessors, (0, 1) (index 1) and (1, 0) (index 4)."""
    net = SynchronousNetwork(Grid2D(3, 4))
    net._dense_nh = False
    return net


def test_memo_forgets_endpoint_hop_when_a_link_fails():
    net = _memo_grid()
    assert net.next_hop((1, 1), (0, 0)) == (0, 1)
    table = net._dist_table((0, 0))
    net.fail_link((1, 1), (0, 1))
    assert net._dist_to[(0, 0)] is table  # distances unchanged: table kept
    assert net.next_hop((1, 1), (0, 0)) == (1, 0)


def test_memo_forgets_endpoint_hop_when_a_link_heals():
    net = _memo_grid()
    net.fail_link((1, 1), (0, 1))
    assert net.next_hop((1, 1), (0, 0)) == (1, 0)
    table = net._dist_table((0, 0))
    net.heal_link((1, 1), (0, 1))
    assert net._dist_to[(0, 0)] is table  # a gap of one shortens nothing
    assert net.next_hop((1, 1), (0, 0)) == (0, 1)


BAD_LABELS = [
    (lambda: XTree(3), (9, 9)),
    (lambda: Grid2D(3, 4), (7, 7)),
    (lambda: Hypercube(3), 99),
]


@pytest.mark.parametrize("make_topology,bad", BAD_LABELS)
@pytest.mark.parametrize("faulted", [False, True])
def test_label_not_in_host_raises_value_error(make_topology, bad, faulted):
    """Both routing branches reject a label outside the host with the
    topology's own ValueError, never UnreachableError or KeyError."""
    topology = make_topology()
    net = SynchronousNetwork(topology)
    if faulted:
        net.fail_link(*next(iter(topology.edges())))
    nodes = list(topology.nodes())
    dst = nodes[1]
    message = str(pytest.raises(ValueError, topology.index, bad).value)
    for call in (
        lambda: net.next_hop(bad, dst),
        lambda: net.next_hop(dst, bad),
        lambda: net.route(bad, dst),
        lambda: net.route(dst, bad),
        lambda: net.route(bad, bad),
        lambda: net.live_neighbors(bad),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
