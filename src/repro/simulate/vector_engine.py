"""Struct-of-arrays delivery kernel for the synchronous network engine.

The reference :meth:`~repro.simulate.engine.SynchronousNetwork.deliver_classic`
loop advances one Python ``Message`` object at a time: per cycle it walks
every node's deque, calls ``next_hop`` per message, and resolves link
contention with per-node dicts.  The paper's simulations are
constant-slowdown by construction (Theorem 1: dilation <= 3, load <= 16),
so at benchmark volume that per-message interpreter overhead *is* the
cost.  This module re-states the same semantics over flat numpy arrays:

* **message state** lives in parallel arrays — current node, destination,
  FIFO ordering key, injection cycle, delivery cycle — indexed by a dense
  message slot;
* **routing** is one gather from the dense next-hop / edge-id matrices the
  :class:`~repro.analysis.oracle.DistanceOracle` builds once per topology
  (smallest-index tie-break, so routes match
  :class:`~repro.simulate.routing.ShortestPathRouter` exactly);
* **contention** is one sort per cycle: messages order by
  ``(directed link, queue key)`` and the first ``link_capacity`` of each
  link group advance — provably the same winners the classic loop picks
  by walking deques in FIFO order (docs/ALGORITHM.md section 10);
* **arrival re-sorting** (the classic engine re-sorts a node's deque by
  sequence number whenever the node receives an arrival) becomes a
  vectorised reset of the ordering key.

The result is *bit-identical* :class:`~repro.simulate.engine.DeliveryStats`
— same cycles, same per-message delivery cycles, same link traffic, same
max queue — gated by the Hypothesis parity suite
(``tests/test_vector_engine.py``) and the 40+-schedule corpus in
``benchmarks/bench_vector.py``.

The kernel serves the deliveries :func:`vector_supported` admits:
deterministic routing, no recorder listening, no faults/TTL, no failed or
slowed links, and a topology small enough for the dense tables.
Everything else runs on the reference loop,
:meth:`~repro.simulate.engine.SynchronousNetwork.deliver_classic`, which
the kernel is diffed against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.oracle import oracle_for
from ..networks.base import Topology
from .messages import DeliveryStats, UnreachableError

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from .engine import SynchronousNetwork

__all__ = [
    "VECTOR_MAX_NODES",
    "fits_dense_tables",
    "vector_supported",
    "vector_deliver_scheduled",
]

#: dense next-hop tables cost O(n^2) int32 each; beyond this the classic
#: per-destination BFS tables are the better trade (and the kernel defers).
#: 2048 keeps Theorem 4's G_n at t = 11 (2032 vertices) on the kernel.
VECTOR_MAX_NODES = 2048


def fits_dense_tables(topology: Topology) -> bool:
    """Whether ``topology`` is small enough for dense next-hop tables."""
    return topology.n_nodes <= VECTOR_MAX_NODES


def vector_supported(network: SynchronousNetwork, rec, faults, ttl) -> str | None:
    """``None`` when the kernel can run this delivery, else *every* reason not.

    ``rec`` is the delivery's recorder, ``None`` when nobody listens.
    Any non-adaptive router routes
    through the engine's deterministic ``next_hop`` on the reference loop
    too, so adaptivity — not the concrete router class — is what matters.

    All blockers are reported at once (joined with ``"; "``), so a caller
    forced onto the reference loop sees the whole distance to the kernel
    instead of fixing preconditions one error message at a time.
    """
    blockers = []
    if faults is not None:
        blockers.append("a FaultSchedule is attached")
    if ttl is not None:
        blockers.append("a per-message TTL is set")
    if rec is not None:
        blockers.append("a recorder is listening")
    if network.router.adaptive:
        blockers.append("the router is adaptive")
    if network.failed:
        blockers.append("links are failed")
    if network.link_delays:
        blockers.append("links are slowed")
    if network.link_corruption:
        blockers.append("links are corrupting")
    if network.link_flaky:
        blockers.append("links are flaky")
    if network.quarantined:
        blockers.append("links are quarantined")
    if not fits_dense_tables(network.topology):
        blockers.append(
            f"topology has {network.topology.n_nodes} nodes "
            f"(> VECTOR_MAX_NODES = {VECTOR_MAX_NODES})"
        )
    if not blockers:
        return None
    return "; ".join(blockers)


def vector_deliver_scheduled(
    network: SynchronousNetwork, schedule: list
) -> DeliveryStats:
    """Run one fault-free, deterministic, unobserved delivery on the kernel.

    Semantically identical to the reference loop
    :meth:`~repro.simulate.engine.SynchronousNetwork.deliver_classic`, and
    run by ``deliver_scheduled`` whenever :func:`vector_supported` finds no
    blocker.  The schedule is validated by the same pass as the reference
    loop's.  Raises :class:`~repro.simulate.engine.UnreachableError` for a
    disconnected destination, exactly like the reference loop.
    """
    topo = network.topology
    stats = DeliveryStats(cycles=0, n_messages=len(schedule))
    inj_list, _, mid_list, src_list, dst_list = network._split_schedule(schedule, stats)
    m_total = len(inj_list)
    if m_total == 0:
        return stats

    oracle = oracle_for(topo)
    nh_mat, eid_mat = oracle.next_hop_tables()
    n = topo.n_nodes
    nh_flat = nh_mat.ravel()
    eid_flat = eid_mat.ravel()
    n_dir = int(oracle.indices.size)

    inject_at = np.asarray(inj_list, dtype=np.int64)
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    # the classic loop keys FIFO fairness on the schedule position among
    # routed messages ("seq"); sorting by (injection cycle, seq) reproduces
    # its per-cycle pending lists
    seq = np.argsort(inject_at, kind="stable").astype(np.int64)
    inject_at = inject_at[seq]
    src = src[seq]
    dst = dst[seq]
    # after the permutation, slot i holds the message whose classic seq is
    # seq[i] — that value, not i, is the FIFO tie-break
    if (nh_flat[src * n + dst] < 0).any():
        bad = int(np.flatnonzero(nh_flat[src * n + dst] < 0)[0])
        labels = list(topo.nodes())
        raise UnreachableError(
            f"{labels[int(src[bad])]!r} cannot reach {labels[int(dst[bad])]!r} "
            "(failed links)"
        )

    # queue ordering key: the classic deque order is always "messages
    # re-sorted by seq at the node's last arrival, then injection batches
    # appended in order" — encoded as  qk = batch * m_total + seq  with
    # batch = 0 once a node has been re-sorted (see ALGORITHM.md §10)
    qk = np.zeros(m_total, dtype=np.int64)
    done_cycle = np.full(m_total, -1, dtype=np.int64)
    traffic = np.zeros(n_dir, dtype=np.int64)
    node_hit = np.zeros(n, dtype=bool)
    cur = src.copy()
    cap = network.link_capacity
    # combined single-key sort when it provably fits in int64, else a
    # two-key lexsort (same order: edge group first, queue key within)
    n_batches = int(np.unique(inject_at).size)
    edge_stride = (n_batches + 2) * m_total
    combined = n_dir * edge_stride < 2**62

    queued = np.empty(0, dtype=np.int64)
    ptr = 0
    clock = 0
    batch = 0
    max_queue = 0
    network._delivering = True
    try:
        while queued.size or ptr < m_total:
            if not queued.size:
                # network drained: jump over the idle gap to the next
                # injection (the schedule is sorted, so ptr is the event)
                clock = int(inject_at[ptr])
            end = int(np.searchsorted(inject_at, clock, side="right"))
            if end > ptr:
                fresh = np.arange(ptr, end, dtype=np.int64)
                batch += 1
                qk[fresh] = batch * m_total + seq[fresh]
                queued = np.concatenate((queued, fresh)) if queued.size else fresh
                ptr = end
            clock += 1
            cu = cur[queued]
            occupancy = np.bincount(cu, minlength=n)
            mq = int(occupancy.max())
            if mq > max_queue:
                max_queue = mq
            flat = cu * n + dst[queued]
            hop = nh_flat[flat].astype(np.int64)
            edge = eid_flat[flat].astype(np.int64)
            if combined:
                order = np.argsort(edge * edge_stride + qk[queued])
            else:
                order = np.lexsort((qk[queued], edge))
            edge_sorted = edge[order]
            a = edge_sorted.size
            is_start = np.empty(a, dtype=bool)
            is_start[0] = True
            np.not_equal(edge_sorted[1:], edge_sorted[:-1], out=is_start[1:])
            if cap == 1:
                win = is_start
            else:
                positions = np.arange(a, dtype=np.int64)
                group_start = np.maximum.accumulate(
                    np.where(is_start, positions, 0)
                )
                win = positions - group_start < cap
            winners = order[win]
            w_ids = queued[winners]
            w_hop = hop[winners]
            np.add.at(traffic, edge[winners], 1)
            arrived_home = w_hop == dst[w_ids]
            done_cycle[w_ids[arrived_home]] = clock
            survivors = w_ids[~arrived_home]
            cur[survivors] = w_hop[~arrived_home]
            losers = queued[order[~win]]
            # the classic loop re-sorts a node's whole deque by seq when
            # *any* message (delivered or forwarded) arrives there: reset
            # the ordering key of everything queued at a hit node
            node_hit[w_hop] = True
            qk[survivors] = seq[survivors]
            stale = losers[node_hit[cur[losers]]]
            qk[stale] = seq[stale]
            node_hit[w_hop] = False
            queued = np.concatenate((losers, survivors))
    finally:
        network._delivering = False

    stats.cycles = max(clock, stats.cycles)
    stats.max_queue = max_queue
    mids = np.asarray(mid_list, dtype=np.int64)[seq]
    stats.delivery_cycle.update(zip(mids.tolist(), done_cycle.tolist()))
    used = np.flatnonzero(traffic)
    if used.size:
        labels = oracle._labels
        indptr = oracle.indptr
        edge_src = np.searchsorted(indptr, used, side="right") - 1
        edge_dst = oracle.indices[used]
        link_traffic = stats.link_traffic
        for u, v, count in zip(
            edge_src.tolist(), edge_dst.tolist(), traffic[used].tolist()
        ):
            link_traffic[(labels[u], labels[v])] = count
    return stats
