"""Struct-of-arrays delivery kernel for the synchronous network engine.

The reference :meth:`~repro.simulate.engine.SynchronousNetwork.deliver_classic`
loop advances one Python ``Message`` object at a time: per cycle it walks
every node's deque, calls ``next_hop`` per message, and resolves link
contention with per-node dicts.  The paper's simulations are
constant-slowdown by construction (Theorem 1: dilation <= 3, load <= 16),
so at benchmark volume that per-message interpreter overhead *is* the
cost.  This module re-states the same semantics over flat numpy arrays:

* **the queue** is one int64 array of keys ``link << shift | qk``, kept
  sorted from cycle to cycle: grouped by directed link (a CSR position,
  so a node's queue is one contiguous run) and, within a link, in the
  classic deque order.  ``qk`` is the message's seq once its place is
  settled, and ``m + slot`` while it is not (docs/ALGORITHM.md section 10);
* **contention** is one boundary scan: the first ``link_capacity`` keys
  of each link's run advance.  Only those winners are touched: each key
  is overwritten in place with its next link's key (one gather from the
  :class:`~repro.analysis.oracle.DistanceOracle`'s dense edge-id table,
  so routes match :class:`~repro.simulate.routing.ShortestPathRouter`),
  or with a negative key once delivered, and a stable sort (a linear
  merge on a nearly sorted array) restores the order;
* **arrival re-sorting** (the classic engine re-sorts a node's deque by
  seq whenever the node receives an arrival) re-keys a hit node's run,
  and only where an unsettled key can sit; injection-sorted schedules
  never have one.

The result is *bit-identical* :class:`~repro.simulate.engine.DeliveryStats`
— same cycles, same per-message delivery cycles, same link traffic, same
max queue — gated by the parity suite (``tests/test_vector_engine.py``)
and the 40+-schedule corpus in ``benchmarks/bench_vector.py``.

The kernel serves the deliveries :func:`vector_supported` admits:
deterministic routing, no recorder listening, no faults/TTL, no failed or
slowed links, and a topology small enough for the dense table.
Everything else runs on the reference loop, which the kernel is diffed
against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.oracle import oracle_for
from ..networks.base import Topology
from .messages import ArraySchedule, DeliveryStats, UnreachableError

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from .engine import SynchronousNetwork

__all__ = [
    "VECTOR_MAX_NODES",
    "vector_supported",
    "vector_deliver_scheduled",
    "checked_arrays",
]

#: the dense edge-id table costs O(n^2) int32; beyond this the classic
#: per-destination BFS tables are the better trade (and the kernel defers).
#: 2048 keeps Theorem 4's G_n at t = 11 (2032 vertices) on the kernel.
VECTOR_MAX_NODES = 2048


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
    if network.topology.n_nodes > VECTOR_MAX_NODES:
        blockers.append(
            f"topology has {network.topology.n_nodes} nodes "
            f"(> VECTOR_MAX_NODES = {VECTOR_MAX_NODES})"
        )
    if not blockers:
        return None
    return "; ".join(blockers)


def checked_arrays(topology: Topology, schedule: ArraySchedule) -> tuple[np.ndarray, ...]:
    """The columns of ``schedule`` as int64 arrays, validated in one
    vectorised pass.

    Raises :class:`ValueError` in the list schedule's cases (a negative
    injection cycle, a duplicate ``msg_id``, an endpoint that is not a node
    of ``topology``: an index below 0 or past its last node) and for
    columns that are not one-dimensional integer arrays of equal length.
    """
    cols = [np.asarray(col) for col in schedule]
    if any(col.ndim != 1 or col.dtype.kind not in "iu" for col in cols):
        raise ValueError("an array schedule holds four one-dimensional integer arrays")
    if len({col.size for col in cols}) > 1:
        raise ValueError(
            f"array schedule columns differ in length: {[col.size for col in cols]}"
        )
    inject, mids, src, dst = (col.astype(np.int64, copy=False) for col in cols)
    if not mids.size:
        return inject, mids, src, dst
    if inject.min() < 0:
        raise ValueError("injection cycle must be non-negative")
    n = topology.n_nodes
    for ends in (src, dst):
        bad = (ends < 0) | (ends >= n)
        if bad.any():
            at = int(bad.argmax())
            raise ValueError(
                f"msg_id {int(mids[at])}: index {int(ends[at])} is not a node of "
                f"{topology.name} ({n} nodes)"
            )
    if not (mids[1:] > mids[:-1]).all():  # ascending ids are unique
        ordered = np.sort(mids)
        dup = ordered[1:] == ordered[:-1]
        if dup.any():
            raise ValueError(
                f"duplicate msg_id {int(ordered[1:][dup][0])} in schedule: delivery "
                "stats and traces are keyed by msg_id, so ids must be unique"
            )
    return inject, mids, src, dst


def vector_deliver_scheduled(
    network: SynchronousNetwork, schedule: list | ArraySchedule
) -> DeliveryStats:
    """Run one fault-free, deterministic, unobserved delivery on the kernel.

    Semantically identical to the reference loop
    :meth:`~repro.simulate.engine.SynchronousNetwork.deliver_classic`, and
    run by ``deliver_scheduled`` whenever :func:`vector_supported` finds no
    blocker.  A list schedule is validated by the same pass as the
    reference loop's, an :class:`~repro.simulate.messages.ArraySchedule` by
    :func:`checked_arrays`; both give the same stats, ``delivery_cycle`` in
    the same order (self-messages first, then schedule order).  Raises
    :class:`~repro.simulate.engine.UnreachableError` for a disconnected
    destination, exactly like the reference loop.
    """
    if isinstance(schedule, ArraySchedule):
        inject, mids, src, dst = checked_arrays(network.topology, schedule)
        stats = DeliveryStats(cycles=0, n_messages=mids.size)
        loop = src == dst
        if loop.any():  # self-messages are delivered free at injection
            stats.delivery_cycle.update(zip(mids[loop].tolist(), inject[loop].tolist()))
            stats.cycles = int(inject[loop].max())
            routed = ~loop
            inject, mids, src, dst = inject[routed], mids[routed], src[routed], dst[routed]
        mid_list = mids.tolist()
    else:
        stats = DeliveryStats(cycles=0, n_messages=len(schedule))
        inject, _, mid_list, src, dst = network._split_schedule(schedule, stats)
    if mid_list:
        _deliver(network, stats, inject, mid_list, src, dst)
    return stats


def _deliver(network: SynchronousNetwork, stats: DeliveryStats, inj, mid_list, src, dst) -> None:
    """The kernel loop over the routed messages, in schedule order: their
    injection cycles, ids and endpoint indices, as int64 arrays or lists
    (the ids a list); fills ``stats``."""
    m = len(mid_list)
    topo = network.topology
    oracle = oracle_for(topo)
    eid_flat = oracle.next_hop_edges().ravel()
    n = topo.n_nodes
    indptr, link_dst, labels = oracle.indptr, oracle.indices, oracle._labels
    # per-message arrays are indexed by "seq", the classic loop's FIFO
    # tie-break: the position among routed messages in schedule order
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    first_link = eid_flat[src * n + dst]
    if (first_link < 0).any():
        bad = int(np.flatnonzero(first_link < 0)[0])
        raise UnreachableError(
            f"{labels[int(src[bad])]!r} cannot reach {labels[int(dst[bad])]!r} "
            "(failed links)"
        )
    # slot order is the classic (injection batch, seq) order
    order = np.argsort(np.asarray(inj, dtype=np.int64), kind="stable")
    inject = np.asarray(inj, dtype=np.int64)[order]
    # the queue is one sorted int64 array of keys  link << shift | qk,
    # where qk is seq once the message's place is settled and m + slot
    # while it is not (ALGORITHM.md section 10); q2s maps qk back to seq
    shift = (2 * m - 1).bit_length()
    low = (1 << shift) - 1
    q2s = np.concatenate((np.arange(m), order))
    # a node's links are contiguous CSR positions, so its queue is the one
    # run of keys in [first_key[v], end_key[v])
    first_key = indptr.astype(np.int64) << shift
    end_key = first_key[1:]
    done = np.zeros(m, dtype=np.int64)
    unsettled = np.zeros(n, dtype=bool)  # nodes that may hold unsettled keys
    any_unsettled = False
    keys = np.empty(0, dtype=np.int64)
    # link traffic: the moved link ids, folded into per-link counts once
    # they outnumber the links (neither memory nor work outgrows the hops)
    moved, n_moved, traffic = [], 0, None
    fold_at = max(link_dst.size, 1 << 16)
    cap = network.link_capacity
    top = -1  # largest seq injected so far
    ptr = clock = max_queue = 0
    network._delivering = True
    try:
        while keys.size or ptr < m:
            if not keys.size:
                # network drained: jump over the idle gap to the next
                # injection (the slots are sorted, so ptr is the event)
                clock = int(inject[ptr])
            if ptr < m and inject[ptr] == clock:
                end = int(np.searchsorted(inject, clock, side="right"))
                fresh = order[ptr:end]
                at = src[fresh]
                qk = fresh
                if any_unsettled or fresh[0] < top:
                    # behind a larger seq injected earlier, or behind an
                    # unsettled message: appended after the node's queue
                    unsettled[at[fresh < top]] = True
                    late = unsettled[at]
                    if late.any():
                        any_unsettled = True
                        qk = np.where(late, np.arange(m + ptr, m + end), fresh)
                top = max(top, int(fresh[-1]))
                fresh_keys = (first_link[fresh].astype(np.int64) << shift) | qk
                fresh_keys.sort()
                keys = np.sort(np.concatenate((keys, fresh_keys)), kind="stable")
                max_queue = max(max_queue, _longest_run(keys, first_key[at], end_key[at]))
                ptr = end
            clock += 1
            link = keys >> shift
            head = np.empty(keys.size, dtype=bool)
            head[0] = True
            np.not_equal(link[1:], link[:-1], out=head[1:])
            win = head.nonzero()[0]
            if cap > 1:
                run_end = np.append(win[1:], keys.size)[:, None]
                win = win[:, None] + np.arange(cap)
                win = win[win < run_end]
            w_link = link[win]
            w_seq = q2s[keys[win] & low]
            hop = link_dst[w_link]
            if any_unsettled:
                # a hit re-sorts the node's queue by seq: re-key its run
                hit = np.unique(hop[unsettled[hop]])
                lo = keys.searchsorted(first_key[hit]).tolist()
                for a, b in zip(lo, keys.searchsorted(end_key[hit]).tolist()):
                    run = keys[a:b]
                    run[:] = (run & ~low) | q2s[run & low]
                unsettled[hit] = False
                any_unsettled = bool(unsettled.any())
            # the next link, or -1 once delivered: a negative key, which
            # the sort moves to the front to be cut off
            nxt = eid_flat[hop * n + dst[w_seq]]
            keys[win] = (nxt.astype(np.int64) << shift) | w_seq
            done[w_seq] = clock  # a message's last move is its delivery
            if n_moved >= fold_at:
                counts = np.bincount(np.concatenate(moved), minlength=link_dst.size)
                traffic = counts if traffic is None else traffic + counts
                moved, n_moved = [], 0
            moved.append(w_link)
            n_moved += w_link.size
            keys.sort(kind="stable")  # nearly sorted: a linear merge
            keys = keys[keys.searchsorted(0) :]
            gained = hop[nxt >= 0]
            if gained.size:
                max_queue = max(max_queue, _longest_run(keys, first_key[gained], end_key[gained]))
    finally:
        network._delivering = False

    stats.cycles = max(clock, stats.cycles)
    stats.max_queue = max_queue
    stats.delivery_cycle.update(zip(mid_list, done.tolist()))
    used, counts = np.unique(np.concatenate(moved), return_counts=True)
    if traffic is not None:
        traffic[used] += counts
        used = np.flatnonzero(traffic)
        counts = traffic[used]
    link_traffic = stats.link_traffic
    tails = np.searchsorted(indptr, used, side="right") - 1
    for u, v, count in zip(tails.tolist(), link_dst[used].tolist(), counts.tolist()):
        link_traffic[(labels[u], labels[v])] = count


def _longest_run(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """The most ``keys`` within any of the key ranges ``[lo[i], hi[i])``."""
    return int((keys.searchsorted(hi) - keys.searchsorted(lo)).max())
