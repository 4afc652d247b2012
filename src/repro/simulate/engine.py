"""Cycle-level synchronous message-passing network simulator.

This is the library's stand-in for the parallel machine the paper reasons
about (DESIGN.md section 5): a network of processors joined by
bidirectional links, store-and-forward routing, and one message per link
direction per clock cycle (configurable).  The paper's *dilation* is then
literally the number of cycles a message between formerly-adjacent guest
processors needs on the host; *congestion* shows up as queueing delay.

The simulator is deterministic: with the default router, shortest-path
routes break ties towards the smallest canonical node index; link
contention is resolved FIFO by (arrival cycle, message id).  The next-hop
policy is pluggable (see :mod:`repro.simulate.routing`): the
congestion-aware :class:`~repro.simulate.routing.AdaptiveRouter` spreads
tied flows by recent load instead, seeded so runs stay reproducible.
"""

from __future__ import annotations

import struct
import zlib
from collections import defaultdict, deque
from collections.abc import Iterable
from hashlib import blake2b

from ..analysis.oracle import oracle_for
from ..networks.base import Topology, bfs_distances_from
from ..obs import Recorder
from .faults import FaultEvent, FaultSchedule
from .messages import ArraySchedule, DeliveryStats, Message, Node, UnreachableError
from .routing import Router, make_router
from .vector_engine import (
    VECTOR_MAX_NODES,
    checked_arrays,
    vector_deliver_scheduled,
    vector_supported,
)

__all__ = [
    "Message",
    "ArraySchedule",
    "DeliveryStats",
    "SynchronousNetwork",
    "UnreachableError",
    "INTEGRITY_MAX_RETRIES",
    "RETRANSMIT_BACKOFF_CAP",
    "QUARANTINE_EWMA_DECAY",
    "QUARANTINE_THRESHOLD",
    "QUARANTINE_PROBE_AFTER",
]

#: integrity protocol (byzantine link faults, see
#: :meth:`SynchronousNetwork.corrupt_link`): how many times a message may
#: be retransmitted before it fails with reason ``"integrity"``
INTEGRITY_MAX_RETRIES = 6
#: cap on the exponential retransmit backoff, in cycles (1, 2, 4, ... cap)
RETRANSMIT_BACKOFF_CAP = 32
#: per-crossing decay of a link's corruption EWMA (bad crossings add
#: ``1 - decay``): three consecutive bad crossings from a clean history
#: push the EWMA over the quarantine threshold
QUARANTINE_EWMA_DECAY = 0.75
QUARANTINE_THRESHOLD = 0.5
#: cycles a quarantined link sits out before its probe heal readmits it
QUARANTINE_PROBE_AFTER = 24

_TWO64 = float(1 << 64)


def _payload_word(m: Message) -> int:
    """The 64-bit payload word a message carries end-to-end in byzantine
    mode: a digest of its identity, standing in for the application data a
    real transport would checksum."""
    data = repr((m.msg_id, m.src, m.dst, m.payload)).encode(
        "utf-8", "backslashreplace"
    )
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def _checksum(word: int) -> int:
    """End-to-end checksum over the payload word.

    CRC-32 on purpose: small enough that silent collisions are *possible*,
    which is exactly what the ``n_silent_corruptions`` ground-truth counter
    exists to measure (benchmarks gate it at zero on the seeded corpus).
    """
    return zlib.crc32(word.to_bytes(8, "big"))


def _byz_coin(seed: int, tag: int, a: int, b: int, msg_id: int, crossing: int) -> int:
    """Stateless 64-bit coin for byzantine outcomes.

    Keyed on (event seed, action tag, canonical link endpoint indices,
    message id, per-message crossing counter): deterministic under one
    seed, independent of forwarding order, and free of RNG state that
    would otherwise have to ride along in checkpoints.
    """
    data = struct.pack(">qqqqqq", seed, tag, a, b, msg_id, crossing)
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class SynchronousNetwork:
    """A topology plus routing tables and a store-and-forward executor.

    ``failed_links`` marks bidirectional links as down: routing avoids
    them, and delivery raises :class:`UnreachableError` when a destination
    is cut off.  Links can also be failed mid-simulation with
    :meth:`fail_link` / healed with :meth:`heal_link` — the fault injection
    hooks the test suite exercises.  Per-destination routing tables, and
    the next hops read off them, are built lazily and invalidated
    *incrementally*: a link event drops only the tables it can actually
    stale and the next hops of its two endpoints (see :meth:`_invalidate`),
    so long fail/heal sequences keep most of the routing cache warm.

    ``router`` selects the next-hop policy (:mod:`repro.simulate.routing`):
    ``None`` / ``"deterministic"`` keep the historical smallest-index
    shortest-path policy (:meth:`next_hop`); ``"adaptive"`` (or any
    :class:`~repro.simulate.routing.Router` instance) routes each hop
    through the policy object and feeds the engine's per-cycle link
    utilisation and queue occupancy back into it after every active cycle.
    """

    def __init__(
        self,
        topology: Topology,
        link_capacity: int = 1,
        failed_links: Iterable[tuple[Node, Node]] | None = None,
        router: Router | str | None = None,
    ):
        if link_capacity < 1:
            raise ValueError(f"link capacity must be >= 1, got {link_capacity}")
        self.topology = topology
        self.link_capacity = link_capacity
        self.router = make_router(router).bind(self)
        self.failed: set[frozenset] = set()
        #: latency faults: link -> extra cycles per crossing (slow, not dead)
        self.link_delays: dict[frozenset, int] = {}
        #: byzantine faults: link -> (per-crossing corruption rate, seed)
        self.link_corruption: dict[frozenset, tuple[float, int]] = {}
        #: byzantine faults: link -> (per-crossing drop rate, seed)
        self.link_flaky: dict[frozenset, tuple[float, int]] = {}
        #: links quarantined by the corruption EWMA, mapped to the absolute
        #: (``fault_offset``-inclusive) cycle their probe heal readmits them
        self.quarantined: dict[frozenset, int] = {}
        #: per-link corruption EWMA driving quarantine decisions
        self.corruption_ewma: dict[frozenset, float] = {}
        self._dist_to: dict[Node, dict[Node, int]] = {}
        #: next hops memoised beside their distance table: dst -> node -> hop,
        #: filled on first ask and invalidated with it (see _invalidate)
        self._hop_to: dict[Node, dict[Node, Node]] = {}
        #: live adjacency, label -> live neighbours in topology.neighbors
        #: order; built on first use, patched per link event
        self._adj: dict[Node, tuple[Node, ...]] | None = None
        #: the DistanceOracle's edge-id table, fetched lazily for the
        #: fault-free classic path, and the label each CSR slot leads to;
        #: ``False`` marks "topology too large"
        self._dense_nh = None
        self._dense_labels: list[Node] | None = None
        #: label -> canonical index, built by the first delivery
        self._label_index: dict[Node, int] | None = None
        #: True while deliver_scheduled runs — bare fail/heal calls are then
        #: rejected (use a FaultSchedule for mid-delivery faults)
        self._delivering = False
        self._applying_fault = False
        for u, v in failed_links or ():
            self.fail_link(u, v)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> bool:
        """Take the (bidirectional) link ``{u, v}`` down; False when it was
        down already (then the call only cancels a quarantine probe heal).

        Must name an actual topology edge.  Routing tables are invalidated
        *incrementally*: only destinations whose cached distances actually
        change are dropped (see :meth:`_invalidate`); every other table
        stays exact, so unrelated traffic keeps its warm caches across
        faults.
        """
        link = self._check_link(u, v, "fail_link")
        # an explicit failure outranks a quarantine: cancel the probe heal
        self.quarantined.pop(link, None)
        if link in self.failed:
            return False
        self.failed.add(link)
        self._invalidate(u, v, healed=False)
        return True

    def restore_link(self, u: Node, v: Node) -> None:
        """Bring a previously failed link back up.

        Must name an actual topology edge (mirroring :meth:`fail_link`);
        healing a link that is already live is a no-op — in particular it
        does *not* drop any warm routing tables.  Tables are dropped only
        where the revived link creates a shorter route: when exactly one
        endpoint was reachable, or the cached distances differ by two or
        more.  Tables the link cannot improve (``|dist(u) - dist(v)| <= 1``)
        are kept.
        """
        link = self._check_link(u, v, "heal_link")
        # a heal restores full function: latency and byzantine faults clear
        # too, and a quarantined link is pardoned outright (no probe needed)
        self.link_delays.pop(link, None)
        self.link_corruption.pop(link, None)
        self.link_flaky.pop(link, None)
        self.quarantined.pop(link, None)
        self.corruption_ewma.pop(link, None)
        self._revive_link(u, v)

    #: alias: fault-injection scripts read ``fail_link`` / ``heal_link``
    heal_link = restore_link

    def _revive_link(self, u: Node, v: Node) -> None:
        """Restore *routability* only: the tail of :meth:`restore_link`, and
        the quarantine probe heal.

        Unlike :meth:`restore_link` this keeps the link's byzantine state
        (corruption/flaky rates): the probe optimistically readmits the
        link to the route set, and if it still corrupts, its EWMA climbs
        and quarantines it again.
        """
        link = frozenset((u, v))
        if link not in self.failed:
            return  # already live: nothing changed, keep every warm table
        self.failed.discard(link)
        self._invalidate(u, v, healed=True)

    def corrupt_link(self, u: Node, v: Node, rate: float, seed: int = 0) -> None:
        """Make the (bidirectional) link *byzantine*: each crossing flips a
        seeded pattern into the message's payload word with probability
        ``rate``.

        This is a data-integrity fault, not a failure: the link stays up
        and routable, distance tables are untouched, and the corruption is
        only observable through the end-to-end checksum the delivery loop
        verifies at the destination (see :meth:`deliver_scheduled`).
        Outcomes are drawn from a stateless hash keyed on
        ``(seed, link, msg_id, crossing)``, so runs are deterministic and
        independent of forwarding order.  ``rate=0`` restores honest
        behaviour; :meth:`heal_link` also clears it.
        """
        link = self._check_link(u, v, "corrupt_link")
        self._set_rate(self.link_corruption, "corruption rate", link, rate, seed)

    def flaky_link(self, u: Node, v: Node, rate: float, seed: int = 0) -> None:
        """Make the (bidirectional) link *flaky*: each crossing silently
        drops the message in transit with probability ``rate``.

        Like :meth:`corrupt_link` this is byzantine, not fail-stop — the
        link stays routable and the loss only surfaces through the
        integrity protocol (an abstracted NACK timeout triggers the same
        retransmit path as a detected corruption).  ``rate=0`` restores
        honest behaviour; :meth:`heal_link` also clears it.
        """
        link = self._check_link(u, v, "flaky_link")
        self._set_rate(self.link_flaky, "drop rate", link, rate, seed)

    def _set_rate(
        self, table: dict, what: str, link: frozenset, rate: float, seed: int
    ) -> None:
        """Set (``rate > 0``) or clear one byzantine rate of a link; its
        corruption EWMA is forgotten once the link is honest on both counts."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{what} must be in [0, 1], got {rate}")
        if rate == 0.0:
            table.pop(link, None)
            if link not in self.link_corruption and link not in self.link_flaky:
                self.corruption_ewma.pop(link, None)
        else:
            table[link] = (rate, seed)

    def delay_link(self, u: Node, v: Node, delay: int) -> None:
        """Make the (bidirectional) link slow: every crossing now takes
        ``1 + delay`` cycles instead of 1.

        This is a *latency* fault, not a failure: the link stays up and
        routable, distance tables are untouched (routing still counts it
        as one hop), messages queued behind it are never rerouted, and no
        repair is warranted — a slow link delivers, just late.  ``delay=0``
        restores full speed; :meth:`heal_link` also clears a delay.
        """
        link = self._check_link(u, v, "delay_link")
        if delay < 0:
            raise ValueError(f"link delay must be >= 0 extra cycles, got {delay}")
        if delay == 0:
            self.link_delays.pop(link, None)
        else:
            self.link_delays[link] = delay

    def fail_node(self, node: Node) -> list[tuple[Node, Node]]:
        """Take a whole processor down: fail every live incident link, and
        return those links."""
        if not self.topology.has_node(node):
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        links = [(node, v) for v in self.live_neighbors(node)]
        for u, v in links:
            self.fail_link(u, v)
        return links

    def heal_node(self, node: Node) -> None:
        """Bring a processor back: heal every incident link.

        Inverse shorthand of :meth:`fail_node` — note it revives *all*
        incident links, including any that were failed by separate link
        events (node state is not tracked independently of its links).
        """
        if not self.topology.has_node(node):
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        for v in self.topology.neighbors(node):
            if frozenset((node, v)) in self.failed:
                self.restore_link(node, v)

    def _check_link(self, u: Node, v: Node, what: str) -> frozenset:
        """The link ``{u, v}`` for the direct fault call ``what``.

        Must name a topology edge, and is rejected while a delivery is
        running: before the fault subsystem existed, calling ``fail_link``
        from a recorder hook (or any other callback reached mid-delivery)
        silently left queued messages routed via whatever tables they had
        already consulted that cycle — neither the old nor the new routes,
        and not reproducible.  Mid-delivery faults must go through a
        :class:`~repro.simulate.faults.FaultSchedule`, which the engine
        applies at well-defined cycle boundaries.
        """
        if self._delivering and not self._applying_fault:
            raise RuntimeError(
                f"{what} called while a delivery is in progress; mid-delivery "
                "faults must be scripted with a FaultSchedule passed to "
                "deliver_scheduled(..., faults=...) so they apply at cycle "
                "boundaries (direct calls would leave in-flight messages on "
                "stale routes)"
            )
        if v not in self.topology.neighbors(u):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        return frozenset((u, v))

    def _apply_fault_event(self, ev: FaultEvent) -> list[tuple[Node, Node]]:
        """Apply one schedule event; return the links that newly failed.

        No-op events (failing a failed link, healing a live one) return an
        empty list, keeping chaos schedules idempotent.  Invalid events
        (non-edges, unknown nodes) raise :class:`ValueError` exactly like
        the direct methods do.
        """
        self._applying_fault = True
        try:
            newly_failed: list[tuple[Node, Node]] = []
            if ev.action == "fail_link":
                if self.fail_link(ev.u, ev.v):
                    newly_failed.append((ev.u, ev.v))
            elif ev.action == "heal_link":
                self.restore_link(ev.u, ev.v)
            elif ev.action == "delay_link":
                self.delay_link(ev.u, ev.v, ev.delay)
            elif ev.action == "corrupt_link":
                self.corrupt_link(ev.u, ev.v, ev.rate, ev.seed)
            elif ev.action == "flaky_link":
                self.flaky_link(ev.u, ev.v, ev.rate, ev.seed)
            elif ev.action == "fail_node":
                newly_failed = self.fail_node(ev.u)
            else:  # heal_node
                self.heal_node(ev.u)
            return newly_failed
        finally:
            self._applying_fault = False

    def _invalidate(self, u: Node, v: Node, *, healed: bool) -> None:
        """Bring the routing caches in line with a change of link ``{u, v}``:
        the live adjacency of both endpoints is rebuilt, and exactly the
        cached distance tables the change stales are dropped.

        A table for destination ``dst`` maps reachable nodes to exact
        distances over the live links.  The checks below are exact — a
        table is dropped if and only if some distance in it changed:

        * **fail**: removing ``{u, v}`` changes a distance iff the farther
          endpoint loses its *only* predecessor towards ``dst`` — i.e.
          ``|d(u) - d(v)| == 1`` and the farther endpoint has no other live
          neighbour at the nearer distance (otherwise every shortest path
          through the link reroutes at equal length, so the whole table
          survives).  In bipartite hosts (grid, hypercube) every edge
          satisfies the distance-gap test for every destination, so the
          alternative-predecessor test is what keeps caches warm there.
        * **heal**: adding ``{u, v}`` changes a distance iff it reconnects
          (exactly one endpoint reachable) or shortcuts
          (``|d(u) - d(v)| >= 2``); a gap of at most 1 cannot shorten any
          path, and a link between two unreachable nodes stays invisible.

        A table's next-hop memo goes with it.  A kept table keeps its memo
        minus the entries of ``u`` and ``v``: a node's hop is the
        smallest-index live neighbour one step nearer, so it depends only
        on the node's own live links and the table's distances, and the
        link changed the former for the two endpoints alone.

        The equivalence with a full rebuild is property-tested under
        randomised fail/heal sequences.
        """
        adj = self._adj
        if adj is not None:
            adj[u] = self._live_row(u)
            adj[v] = self._live_row(v)
        stale = []
        for dst, table in self._dist_to.items():
            du = table.get(u)
            dv = table.get(v)
            if healed:
                if (du is None) != (dv is None) or (
                    du is not None and dv is not None and abs(du - dv) >= 2
                ):
                    stale.append(dst)
            else:
                if du is None or dv is None or abs(du - dv) != 1:
                    continue  # not on any shortest path towards dst
                far, near_dist = (u, dv) if du > dv else (v, du)
                if not any(table.get(w) == near_dist for w in self.live_neighbors(far)):
                    stale.append(dst)
        for dst in stale:
            del self._dist_to[dst]
            del self._hop_to[dst]
        for hops in self._hop_to.values():
            hops.pop(u, None)
            hops.pop(v, None)

    def _live_row(self, node: Node) -> tuple[Node, ...]:
        """``node``'s entry of the live adjacency, from the failed-link set."""
        failed = self.failed
        return tuple(
            w for w in self.topology.neighbors(node) if frozenset((node, w)) not in failed
        )

    def live_neighbors(self, node: Node) -> tuple[Node, ...]:
        """The topology's neighbours reachable over non-failed links, in
        ``topology.neighbors`` order; a label not in the host raises the
        topology's :class:`ValueError`."""
        adj = self._adj
        if adj is None:
            adj = self._adj = {w: self._live_row(w) for w in self.topology.nodes()}
        row = adj.get(node)
        if row is None:
            self.topology.index(node)  # the topology's own ValueError
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        return row

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dist_table(self, dst: Node) -> dict[Node, int]:
        table = self._dist_to.get(dst)
        if table is None:
            self.live_neighbors(dst)  # builds the adjacency, checks the label
            table = bfs_distances_from(self._adj.__getitem__, dst)
            self._dist_to[dst] = table
            self._hop_to[dst] = {}
        return table

    def _dense_next_hop(self):
        """Lazily fetch the oracle's edge-id table (fault-free only).

        Returns the ``(n, n)`` int32 table, with ``_dense_labels[e]`` the
        label CSR slot ``e`` leads to, or ``False`` when the topology
        exceeds :data:`~repro.simulate.vector_engine.VECTOR_MAX_NODES` and
        the O(n^2) table is not worth building.
        """
        table = self._dense_nh
        if table is None:
            if self.topology.n_nodes > VECTOR_MAX_NODES:
                table = self._dense_nh = False
            else:
                oracle = oracle_for(self.topology)
                table = self._dense_nh = oracle.next_hop_edges()
                labels = list(self.topology.nodes())
                self._dense_labels = [labels[j] for j in oracle.indices.tolist()]
        return table

    def next_hop(self, node: Node, dst: Node) -> Node:
        """Deterministic shortest-path next hop from ``node`` towards ``dst``."""
        if node == dst:
            raise ValueError("message already at destination")
        if not self.failed:
            # fault-free: one gather from the oracle's dense table replaces
            # the per-call neighbour scan (same smallest-index tie-break,
            # property-tested equal in tests/test_vector_engine.py)
            table = self._dense_next_hop()
            if table is not False:
                topo = self.topology
                link = table[topo.index(node), topo.index(dst)]
                if link >= 0:
                    return self._dense_labels[link]
                raise UnreachableError(
                    f"{node!r} cannot reach {dst!r} (failed links)"
                )
        hops = self._hop_to.get(dst)
        if hops is not None:
            hop = hops.get(node)
            if hop is not None:
                return hop
        dist = self._dist_table(dst)
        here = dist.get(node)
        if here is None:
            self.live_neighbors(node)  # a label not in the host: ValueError
            raise UnreachableError(f"{node!r} cannot reach {dst!r} (failed links)")
        # smallest-index live neighbour one step nearer, memoised until a
        # link event at ``node`` or a change of the table (_invalidate)
        hop = self._hop_to[dst][node] = min(
            (v for v in self._adj[node] if dist.get(v, -2) == here - 1),
            key=self.topology.index,
        )
        return hop

    def route(self, src: Node, dst: Node) -> list[Node]:
        """The full deterministic path ``src .. dst`` (inclusive)."""
        if src == dst:
            self.topology.index(src)  # a label not in the host: ValueError
        path = [src]
        cur = src
        while cur != dst:
            cur = self.next_hop(cur, dst)
            path.append(cur)
        return path

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def deliver(
        self,
        messages: list[Message],
        *,
        recorder: Recorder | None = None,
        faults: FaultSchedule | None = None,
        ttl: int | None = None,
    ) -> DeliveryStats:
        """Deliver all ``messages``, injected simultaneously at cycle 1.

        Runs synchronous cycles until every message reaches its destination.
        Each cycle, each directed link forwards at most ``link_capacity``
        messages (FIFO per link); the rest wait in the node's output queue.
        Returns per-message delivery cycles and per-link traffic.
        """
        return self.deliver_scheduled(
            [(0, m) for m in messages],
            recorder=recorder,
            faults=faults,
            ttl=ttl,
        )

    def deliver_scheduled(
        self,
        schedule: list[tuple[int, Message]] | ArraySchedule,
        *,
        recorder: Recorder | None = None,
        faults: FaultSchedule | None = None,
        ttl: int | None = None,
        fault_offset: int = 0,
    ) -> DeliveryStats:
        """Deliver messages with per-message injection cycles.

        ``schedule`` holds ``(inject_after_cycle, message)`` pairs: a message
        scheduled at 0 starts moving in cycle 1, one scheduled at ``k``
        starts in cycle ``k+1``.  This models pipelined (non-barrier)
        execution where later supersteps launch while earlier traffic is
        still in flight — contrast with the BSP semantics of
        :func:`repro.simulate.mapping.simulate_on_host`.

        An :class:`ArraySchedule` says the same in four int64 arrays over
        host node indices, and is delivered with the same stats,
        ``delivery_cycle`` in the same order; the reference loop builds its
        ``Message`` objects from them only when it runs.

        Sparse schedules are free: when the network drains, the clock jumps
        straight to the next injection cycle instead of spinning through
        the idle gap, so the cost is proportional to *active* cycles only
        (the reported ``cycles`` are identical either way).

        ``recorder`` (see :mod:`repro.obs`) receives per-message lifecycle
        events and an end-of-cycle sample for every active cycle; ``None``,
        the default, is the only way to say "not observing".

        Every ``msg_id`` in the schedule must be unique (``delivery_cycle``
        and the trace event chains are keyed by it), every injection cycle
        non-negative and every endpoint a host node (an index in
        ``range(topology.n_nodes)`` in an :class:`ArraySchedule`, whose
        columns must also be equally long); otherwise :class:`ValueError`
        before anything is injected.

        **Fault-tolerant mode** — active when ``faults`` and/or ``ttl`` is
        given (see :mod:`repro.simulate.faults`):

        * ``faults`` is a :class:`~repro.simulate.faults.FaultSchedule`;
          each event applies at the boundary entering its cycle, *before*
          that cycle's forwarding, while messages are in flight.  A message
          queued behind a link that just died stays at its sender and
          re-routes against the updated tables on its next forwarding
          (counted in ``DeliveryStats.n_reroutes``).  ``fault_offset``
          shifts the schedule's cycle origin — the BSP driver passes the
          global cycle count so one schedule spans many supersteps; events
          at or before the offset are treated as already applied.
        * ``ttl`` bounds the cycles a routed message may spend in the
          network after injection; on expiry it is dropped with reason
          ``"ttl"`` in ``DeliveryStats.failed`` instead of occupying queues
          forever.
        * a message whose destination became unreachable waits (burning
          TTL) while the schedule still holds future events that might
          reconnect it; once none remain it is dropped with reason
          ``"partitioned"``.  A partitioned network therefore terminates
          with a structured ``failed`` report — never an infinite loop —
          and whole-network stalls fast-forward the clock to the next
          event instead of spinning through dead cycles.
        * **byzantine events** (``corrupt_link`` / ``flaky_link``) activate
          the end-to-end integrity protocol: every routed message carries
          a checksummed payload word injected at source; a corrupted
          arrival is never delivered — it is counted
          (``DeliveryStats.n_corrupted``), NACKed, and retransmitted from
          source with exponential cycle-backoff (1, 2, 4, ... capped at
          ``RETRANSMIT_BACKOFF_CAP``), failing with the structured reason
          ``"integrity"`` after ``INTEGRITY_MAX_RETRIES`` attempts.  A
          flaky link drops crossings in transit and feeds the same
          retransmit path.  Links whose corruption EWMA crosses
          ``QUARANTINE_THRESHOLD`` are quarantined out of the route set
          (the same incremental invalidation as a link failure) and
          optimistically probed back in ``QUARANTINE_PROBE_AFTER`` cycles
          later.  Outcomes are drawn from stateless seeded hashes, so runs
          are deterministic and checkpoint-free; with no byzantine events
          scheduled and no byzantine link state, the delivery is
          bit-identical to the non-byzantine engine.

        Without ``faults``/``ttl`` the semantics are exactly historical:
        an unreachable destination raises :class:`UnreachableError`.

        The delivery runs on the struct-of-arrays kernel
        (:func:`~repro.simulate.vector_engine.vector_deliver_scheduled`)
        when :func:`~repro.simulate.vector_engine.vector_supported` finds
        no blocker, and on :meth:`deliver_classic`, the reference loop,
        otherwise.  Both return bit-identical :class:`DeliveryStats`.
        """
        if vector_supported(self, recorder, faults, ttl) is None:
            return vector_deliver_scheduled(self, schedule)
        return self.deliver_classic(
            schedule, recorder=recorder, faults=faults, ttl=ttl, fault_offset=fault_offset
        )

    def deliver_classic(
        self,
        schedule: list[tuple[int, Message]] | ArraySchedule,
        *,
        recorder: Recorder | None = None,
        faults: FaultSchedule | None = None,
        ttl: int | None = None,
        fault_offset: int = 0,
    ) -> DeliveryStats:
        """The reference loop :meth:`deliver_scheduled` falls back to.

        Same arguments and semantics, one message at a time; the vector
        kernel is diffed against it (``tests/test_vector_engine.py``).
        Every message takes the one forwarding path below; the byzantine
        integrity protocol lives in :class:`_Integrity`.  When a recorder
        or an adaptive router listens, each active cycle's link use and
        queue occupancy are built once, here, and both read the same dicts.
        """
        if isinstance(schedule, ArraySchedule):
            labels = oracle_for(self.topology)._labels
            cols = (col.tolist() for col in checked_arrays(self.topology, schedule))
            schedule = [
                (k, Message(mid, labels[u], labels[v])) for k, mid, u, v in zip(*cols)
            ]
        rec = recorder
        router = self.router
        adaptive = router.adaptive
        sampling = rec is not None or adaptive
        # events after the offset, in application order; cycle-0 events of
        # an unshifted schedule describe the initial state and still apply
        fev: list = []
        if faults is not None:
            fev = [
                e
                for e in faults.events
                if e.cycle > fault_offset or (fault_offset == 0 and e.cycle == 0)
            ]
        fi = 0
        n_fev = len(fev)
        # latency faults: active on entry, or introduced by a schedule event
        delayed = bool(self.link_delays) or any(e.action == "delay_link" for e in fev)
        # byzantine faults likewise: state persists across supersteps (the
        # BSP driver calls this once per superstep) or arrives via events.
        # They force fault mode — corruption surfaces as retransmissions,
        # reroutes, and structured "integrity" failures
        byz = bool(
            self.link_corruption or self.link_flaky or self.quarantined
        ) or any(e.action in ("corrupt_link", "flaky_link") for e in fev)
        fault_mode = faults is not None or ttl is not None or byz
        stats = DeliveryStats(cycles=0, n_messages=len(schedule))
        inject_list, messages, _, _, _ = self._split_schedule(schedule, stats)
        integ = _Integrity(self, stats, rec, fault_offset, messages) if byz else None
        if rec is not None:
            for inject, m in schedule:
                if m.src == m.dst:  # delivered free at injection
                    rec.on_event(inject, "inject", m.msg_id, m.src)
                    rec.on_event(inject, "delivered", m.msg_id, m.dst)
        # pending[k] holds the (seq, message) pairs injected after cycle k;
        # seq, the position among routed messages, is the FIFO tie-break
        pending: dict[int, list[tuple[int, Message]]] = defaultdict(list)
        for seq, (inject, m) in enumerate(zip(inject_list, messages)):
            pending[inject].append((seq, m))
        seq = len(messages)
        # queues[node] holds (seq, message) tuples in FIFO order
        queues: dict[Node, deque[tuple[int, Message]]] = defaultdict(deque)
        # messages crossing a slow link, keyed by the cycle they arrive
        in_transit: dict[int, list[tuple[Node, tuple[int, Message]]]] = {}
        # fault-mode bookkeeping: injection cycle per message (TTL) and the
        # computed-but-unsent next hop of queued messages (reroute events)
        inject_at: dict[int, int] = {}
        planned: dict[int, tuple[Node, Node, Message]] = {}
        if adaptive:
            router.begin_delivery()
        # messages that crossed each directed link this cycle
        link_use: dict[tuple[Node, Node], int] = {}
        # sorted injection-cycle index: the drain fast-forward and the
        # fault-stall fast-forward used to rescan min(pending) per event,
        # which is quadratic on sparse million-message schedules; a sorted
        # list plus a cursor makes the next-injection lookup O(1).  The
        # cursor can never skip a cycle: the clock either steps by one or
        # jumps to a target <= inj_cycles[inj_ptr].
        inj_cycles = sorted(pending)
        inj_ptr = 0
        n_inj = len(inj_cycles)
        cycle = 0
        in_network = 0  # routed messages injected but not yet delivered
        # hot-loop locals: at benchmark volume the repeated attribute
        # lookups are a measurable slice of the whole delivery
        next_hop = self.next_hop
        link_capacity = self.link_capacity
        link_traffic = stats.link_traffic
        delivery_cycle = stats.delivery_cycle
        flipped = integ.flipped if integ is not None else ()
        max_queue = 0
        self._delivering = True
        try:
            while in_network or inj_ptr < n_inj:
                if not in_network:
                    # network drained: jump over the idle gap straight to
                    # the next injection cycle in the sorted index
                    cycle = inj_cycles[inj_ptr]
                if inj_ptr < n_inj and cycle == inj_cycles[inj_ptr]:
                    inj_ptr += 1
                    for s, m in pending.pop(cycle):
                        queues[m.src].append((s, m))
                        in_network += 1
                        if fault_mode:
                            inject_at[m.msg_id] = cycle
                        if rec is not None:
                            rec.on_event(cycle, "inject", m.msg_id, m.src)
                cycle += 1
                while fi < n_fev and fev[fi].cycle - fault_offset <= cycle:
                    ev = fev[fi]
                    fi += 1
                    newly_failed = self._apply_fault_event(ev)
                    stats.faults_applied.append(ev)
                    if rec is not None:
                        rec.on_event(cycle, "fault", -1, ev.u, ev.v, ev.action)
                    if newly_failed and planned:
                        dead = {frozenset(link) for link in newly_failed}
                        _reroute(planned, dead, cycle, stats, rec)
                if integ is not None:
                    for m in integ.at_boundary(cycle):
                        # a retransmitted copy re-enters at the back of its
                        # source FIFO with a fresh sequence
                        queues[m.src].append((seq, m))
                        seq += 1
                moved_any = False
                arrivals: dict[Node, list[tuple[int, Message]]] = defaultdict(list)
                for node in list(queues):
                    q = queues[node]
                    if not q:
                        continue
                    if len(q) > max_queue:
                        max_queue = len(q)
                    sent_per_link: dict[Node, int] = defaultdict(int)
                    kept: deque[tuple[int, Message]] = deque()
                    while q:
                        s, m = q.popleft()
                        if ttl is not None and cycle - inject_at[m.msg_id] > ttl:
                            stats.failed[m.msg_id] = "ttl"
                            planned.pop(m.msg_id, None)
                            in_network -= 1
                            if rec is not None:
                                rec.on_event(cycle, "dropped", m.msg_id, node, detail="ttl")
                            continue
                        try:
                            hop = (
                                router.next_hop(node, m.dst, m.msg_id)
                                if adaptive
                                else next_hop(node, m.dst)
                            )
                        except UnreachableError:
                            if not fault_mode:
                                raise
                            planned.pop(m.msg_id, None)
                            if fi < n_fev or self.quarantined:
                                # a future event (or a quarantine probe
                                # heal) may reconnect it: wait
                                kept.append((s, m))
                                if rec is not None:
                                    rec.on_event(cycle, "queued", m.msg_id, node)
                            else:
                                stats.failed[m.msg_id] = "partitioned"
                                in_network -= 1
                                if rec is not None:
                                    rec.on_event(
                                        cycle, "dropped", m.msg_id, node, detail="partitioned"
                                    )
                            continue
                        if sent_per_link[hop] >= link_capacity:
                            kept.append((s, m))
                            if fault_mode:
                                planned[m.msg_id] = (node, hop, m)
                            if rec is not None:
                                rec.on_event(cycle, "queued", m.msg_id, node)
                            continue
                        sent_per_link[hop] += 1
                        key = (node, hop)
                        link_traffic[key] = link_traffic.get(key, 0) + 1
                        if sampling:
                            link_use[key] = link_use.get(key, 0) + 1
                        if fault_mode:
                            moved_any = True
                            planned.pop(m.msg_id, None)
                        if rec is not None:
                            rec.on_event(cycle, "hop", m.msg_id, node, hop)
                        if byz:
                            link = frozenset(key)
                            if (
                                link in self.link_flaky or link in self.link_corruption
                            ) and integ.crossing_lost(m, node, hop, link):
                                if integ.reject(m, hop, cycle):
                                    in_network -= 1
                                continue
                        d = self.link_delays.get(frozenset(key), 0) if delayed else 0
                        if d:
                            # slow link: the message left the sender but
                            # arrives d cycles late (latency fault)
                            in_transit.setdefault(cycle + d, []).append((hop, (s, m)))
                        else:
                            arrivals[hop].append((s, m))
                    queues[node] = kept
                if delayed and in_transit:
                    # slow-link crossings finishing this cycle join the
                    # ordinary arrivals (delivered or re-queued below);
                    # landing counts as progress for the stall detector
                    landed = in_transit.pop(cycle, ())
                    if landed:
                        moved_any = True
                        for hop, sm in landed:
                            arrivals[hop].append(sm)
                for node, arrived in arrivals.items():
                    for s, m in arrived:
                        if m.dst != node:
                            queues[node].append((s, m))
                        elif m.msg_id in flipped and integ.corrupted(m, node, cycle):
                            # end-to-end check failed: NACK, never deliver
                            # wrong data
                            if integ.reject(m, node, cycle):
                                in_network -= 1
                        else:
                            delivery_cycle[m.msg_id] = cycle
                            in_network -= 1
                            if rec is not None:
                                rec.on_event(cycle, "delivered", m.msg_id, node)
                # keep FIFO fairness stable: re-sort merged queues by sequence
                for node in arrivals:
                    if queues[node]:
                        queues[node] = deque(sorted(queues[node]))
                if integ is not None and integ.to_quarantine:
                    integ.quarantine(cycle, planned)
                if sampling:
                    occupancy = {n: len(q) for n, q in queues.items() if q}
                    if rec is not None:
                        rec.on_cycle_end(cycle, occupancy, link_use, in_network)
                    if adaptive:
                        router.end_cycle(cycle, link_use, occupancy)
                    link_use = {}
                if fault_mode and in_network and not moved_any:
                    # whole network stalled: every queued message is waiting
                    # on a future heal (or doomed).  Fast-forward to whatever
                    # can change the picture or, with nothing left, drop the
                    # stragglers as partitioned so the run terminates with a
                    # report.
                    target = _stall_target(
                        inj_cycles[inj_ptr] if inj_ptr < n_inj else None,
                        fev[fi].cycle - fault_offset if fi < n_fev else None,
                        in_transit,
                        integ,
                    )
                    if target is not None:
                        cycle = max(cycle, target)
                    else:
                        for node in list(queues):
                            for s, m in queues[node]:
                                stats.failed[m.msg_id] = "partitioned"
                                planned.pop(m.msg_id, None)
                                in_network -= 1
                                if rec is not None:
                                    rec.on_event(
                                        cycle, "dropped", m.msg_id, node, detail="partitioned"
                                    )
                            queues[node].clear()
        finally:
            self._delivering = False
        stats.max_queue = max_queue
        stats.cycles = max(cycle, stats.cycles)
        return stats

    def _split_schedule(
        self, schedule: list[tuple[int, Message]], stats: DeliveryStats
    ) -> tuple[list, ...]:
        """Validate ``schedule`` in one pass, for both delivery engines (see
        :meth:`deliver_scheduled` for the :class:`ValueError` cases), and
        deliver its self-messages free into ``stats``.

        Returns the routed messages' injection cycles, messages, ids and
        endpoint indices as parallel lists in schedule order.
        """
        if self._label_index is None:
            # dict lookups beat per-message topology.index calls
            self._label_index = {
                label: i for i, label in enumerate(self.topology.nodes())
            }
        index = self._label_index
        delivery_cycle = stats.delivery_cycle
        last_self = 0
        routed = ([], [], [], [], [])
        inject_list, messages, msg_ids, src, dst = routed
        seen: set[int] = set()
        for inject, m in schedule:
            if inject < 0:
                raise ValueError("injection cycle must be non-negative")
            mid = m.msg_id
            if mid in seen:
                raise ValueError(
                    f"duplicate msg_id {mid} in schedule: delivery stats "
                    "and traces are keyed by msg_id, so ids must be unique"
                )
            seen.add(mid)
            if m.src == m.dst and m.src in index:
                delivery_cycle[mid] = inject
                if inject > last_self:
                    last_self = inject
                continue
            try:
                src.append(index[m.src])
                dst.append(index[m.dst])
            except KeyError:
                label = m.src if m.src not in index else m.dst
                raise ValueError(
                    f"msg_id {mid}: {label!r} is not a node of {self.topology.name}"
                ) from None
            inject_list.append(inject)
            messages.append(m)
            msg_ids.append(mid)
        # the phase lasts at least until the last self-message's delivery
        stats.cycles = last_self
        return routed


# ----------------------------------------------------------------------
# Delivery helpers
# ----------------------------------------------------------------------
def _reroute(planned: dict, dead: set, cycle: int, stats: DeliveryStats, rec) -> None:
    """Queued messages planned across a ``dead`` link stay at their sender
    and re-route against the updated tables on their next forwarding."""
    for msg_id, (at, hop, msg) in list(planned.items()):
        if frozenset((at, hop)) in dead:
            del planned[msg_id]
            stats.n_reroutes += 1
            if rec is not None:
                rec.on_event(cycle, "reroute", msg.msg_id, at)


def _stall_target(next_inject, next_event, in_transit, integ) -> int | None:
    """Where a stalled network fast-forwards to: the next injection cycle,
    or the cycle before the next fault event, slow-link landing,
    retransmission or probe heal, whichever is first; ``None`` if none."""
    targets = [] if next_inject is None else [next_inject]
    if next_event is not None:
        targets.append(next_event - 1)
    if in_transit:
        targets.append(min(in_transit) - 1)
    if integ is not None and integ.retrans:
        targets.append(min(integ.retrans) - 1)
    if integ is not None and integ.net.quarantined:
        targets.append(min(integ.net.quarantined.values()) - integ.fault_offset - 1)
    return min(targets, default=None)


class _Carried:
    """A routed message's integrity record: the payload word it carries, its
    pristine value (ground truth), the checksum injected at source, and its
    retransmissions and byzantine crossings so far (crossings salt coins)."""

    __slots__ = ("word", "pristine", "checksum", "attempts", "crossings")

    def __init__(self, m: Message):
        self.word = self.pristine = _payload_word(m)
        self.checksum = _checksum(self.word)
        self.attempts = self.crossings = 0


class _Integrity:
    """The end-to-end integrity protocol of one byzantine-mode delivery
    (semantics in :meth:`SynchronousNetwork.deliver_scheduled`).  The
    network keeps ``quarantined`` and ``corruption_ewma``, which
    checkpoints read; everything per-message lives here."""

    def __init__(self, network, stats: DeliveryStats, rec, fault_offset: int, routed):
        self.net = network
        self.stats = stats
        self.rec = rec
        self.fault_offset = fault_offset
        self.index = network.topology.index
        self.carried = {m.msg_id: _Carried(m) for m in routed}
        #: messages whose word a corrupting link flipped since their last
        #: (re)transmission: only those can fail the end-to-end check
        self.flipped: set[int] = set()
        #: retransmissions keyed by the cycle they re-enter their source queue
        self.retrans: dict[int, list[Message]] = {}
        #: links whose EWMA crossed the threshold this cycle
        self.to_quarantine: list[frozenset] = []

    def at_boundary(self, cycle: int) -> list[Message]:
        """Probe-heal the quarantined links due at this boundary, then return
        the retransmissions whose backoff has ended, in order.

        A probe readmits the link to the route set but keeps its byzantine
        state: one that still corrupts climbs its EWMA and re-quarantines.
        """
        quarantined = self.net.quarantined
        index = self.index
        due = sorted(
            (link for link, c in quarantined.items() if c - self.fault_offset <= cycle),
            key=lambda link: sorted(map(index, link)),
        )
        for link in due:
            del quarantined[link]
            u, v = sorted(link, key=index)
            self.net._revive_link(u, v)
            if self.rec is not None:
                self.rec.on_event(cycle, "quarantine", -1, u, v, "probe_heal")
        retrans = self.retrans
        return [m for t in sorted(t for t in retrans if t <= cycle) for m in retrans.pop(t)]

    def crossing_lost(self, m: Message, node: Node, hop: Node, link: frozenset) -> bool:
        """One crossing of the byzantine ``link``: the seeded coins may lose
        the message (flaky) or flip its word (corrupting); either feeds the
        link's EWMA.  True when the message was lost in transit."""
        net = self.net
        flaky = net.link_flaky.get(link)
        corrupt = net.link_corruption.get(link)
        mid = m.msg_id
        carried = self.carried[mid]
        carried.crossings += 1
        k = carried.crossings
        a, b = sorted((self.index(node), self.index(hop)))
        lost = bad = False
        if flaky is not None and _byz_coin(flaky[1], 1, a, b, mid, k) < flaky[0] * _TWO64:
            lost = bad = True
        elif corrupt is not None and _byz_coin(
            corrupt[1], 2, a, b, mid, k
        ) < corrupt[0] * _TWO64:
            # XOR a nonzero seeded pattern into the word
            carried.word ^= _byz_coin(corrupt[1], 3, a, b, mid, k) or 1
            self.flipped.add(mid)
            bad = True
        ewma = QUARANTINE_EWMA_DECAY * net.corruption_ewma.get(link, 0.0)
        if bad:
            ewma += 1.0 - QUARANTINE_EWMA_DECAY
        net.corruption_ewma[link] = ewma
        if ewma >= QUARANTINE_THRESHOLD and link not in self.to_quarantine:
            self.to_quarantine.append(link)
        return lost

    def corrupted(self, m: Message, node: Node, cycle: int) -> bool:
        """The end-to-end check at the destination of a flipped word: True,
        and counted, when the checksum catches it."""
        carried = self.carried[m.msg_id]
        if _checksum(carried.word) != carried.checksum:
            self.stats.n_corrupted += 1
            if self.rec is not None:
                self.rec.on_event(cycle, "corrupt", m.msg_id, node)
            return True
        if carried.word != carried.pristine:
            # the checksum collided: wrong data delivered silently — the
            # ground-truth counter benchmarks gate at zero
            self.stats.n_silent_corruptions += 1
        return False

    def reject(self, m: Message, at: Node, cycle: int) -> bool:
        """NACK a corrupted or lost message: retransmit it pristine from
        source after exponential backoff or, with retries spent, fail it
        with reason ``"integrity"`` and return True."""
        mid = m.msg_id
        carried = self.carried[mid]
        carried.attempts += 1
        if carried.attempts > INTEGRITY_MAX_RETRIES:
            self.stats.failed[mid] = "integrity"
            if self.rec is not None:
                self.rec.on_event(cycle, "dropped", mid, at, detail="integrity")
            return True
        self.stats.n_retransmits += 1
        carried.word = carried.pristine
        self.flipped.discard(mid)
        back = min(1 << (carried.attempts - 1), RETRANSMIT_BACKOFF_CAP)
        self.retrans.setdefault(cycle + back, []).append(m)
        if self.rec is not None:
            self.rec.on_event(
                cycle, "retransmit", mid, m.src, detail=f"attempt={carried.attempts}"
            )
        return False

    def quarantine(self, cycle: int, planned: dict) -> None:
        """Fail the links whose EWMA crossed the threshold this cycle through
        the scheduled-event applier, schedule their probe heals, and reroute
        the messages planned across them."""
        net = self.net
        absolute = cycle + self.fault_offset
        for link in self.to_quarantine:
            if link in net.failed:
                continue
            u, v = sorted(link, key=self.index)
            net._apply_fault_event(FaultEvent(absolute, "fail_link", u, v))
            net.quarantined[link] = absolute + QUARANTINE_PROBE_AFTER
            net.corruption_ewma.pop(link, None)
            self.stats.n_quarantined += 1
            if self.rec is not None:
                self.rec.on_event(cycle, "quarantine", -1, u, v, "quarantined")
            _reroute(planned, {link}, cycle, self.stats, self.rec)
        self.to_quarantine.clear()
