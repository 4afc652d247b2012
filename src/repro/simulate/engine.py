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
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from collections.abc import Iterable
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Hashable

from ..networks.base import Topology, bfs_distances_from
from ..obs import Recorder
from .routing import Router, make_router
from .vector_engine import (
    fits_dense_tables,
    vector_deliver_scheduled,
    vector_supported,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .faults import FaultEvent, FaultSchedule

__all__ = [
    "Message",
    "DeliveryStats",
    "SynchronousNetwork",
    "UnreachableError",
    "ENGINES",
    "INTEGRITY_MAX_RETRIES",
    "RETRANSMIT_BACKOFF_CAP",
    "QUARANTINE_EWMA_DECAY",
    "QUARANTINE_THRESHOLD",
    "QUARANTINE_PROBE_AFTER",
]

#: delivery engine selectors: ``auto`` dispatches to the vectorised kernel
#: whenever its preconditions hold (see :mod:`repro.simulate.vector_engine`)
#: and falls back to the classic loop otherwise; ``classic`` forces the
#: reference loop; ``vector`` forces the kernel and raises when it cannot run
ENGINES = ("auto", "classic", "vector")

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


class UnreachableError(RuntimeError):
    """A message destination is disconnected from its source (failed links)."""

Node = Hashable


@dataclass(frozen=True)
class Message:
    """A point-to-point message between two host nodes."""

    msg_id: int
    src: Node
    dst: Node
    payload: Any = None


@dataclass
class DeliveryStats:
    """Outcome of one synchronous delivery phase."""

    cycles: int
    n_messages: int
    #: per-message delivery cycle: a routed message records the cycle its
    #: last hop arrives (>= 1); a self-message (src == dst) is delivered
    #: free at its *injection* cycle — 0 for :meth:`deliver`, the scheduled
    #: cycle ``k`` for :meth:`deliver_scheduled`
    delivery_cycle: dict[int, int] = field(default_factory=dict)
    #: traffic per directed link over the whole phase
    link_traffic: dict[tuple[Node, Node], int] = field(default_factory=dict)
    max_queue: int = 0
    #: messages dropped instead of delivered, ``msg_id -> reason`` — the
    #: reason is ``"ttl"`` (hop/cycle budget exhausted) or ``"partitioned"``
    #: (destination unreachable with no heal event left to reconnect it);
    #: only ever populated in fault-tolerant deliveries (``faults``/``ttl``)
    failed: dict[int, str] = field(default_factory=dict)
    #: queued messages whose planned next hop died under them (they stayed
    #: at their sender and re-routed against the updated tables)
    n_reroutes: int = 0
    #: fault-schedule events this delivery actually applied, in order
    faults_applied: list["FaultEvent"] = field(default_factory=list)
    #: corrupted arrivals caught by the end-to-end checksum; each triggers
    #: a retransmit from source, or an ``"integrity"`` failure once retries
    #: exhaust (byzantine mode only — see ``corrupt_link``)
    n_corrupted: int = 0
    #: retransmissions the integrity protocol scheduled (corrupt arrivals
    #: plus flaky-link in-transit drops)
    n_retransmits: int = 0
    #: links quarantined out of the route set by the corruption EWMA
    n_quarantined: int = 0
    #: corrupted deliveries the checksum FAILED to catch (a CRC collision)
    #: — ground truth only the simulator can see; benchmarks gate this at 0
    n_silent_corruptions: int = 0

    @property
    def max_link_traffic(self) -> int:
        return max(self.link_traffic.values(), default=0)

    @property
    def complete(self) -> bool:
        """True when no message was dropped (all delivered)."""
        return not self.failed


class SynchronousNetwork:
    """A topology plus routing tables and a store-and-forward executor.

    ``failed_links`` marks bidirectional links as down: routing avoids
    them, and delivery raises :class:`UnreachableError` when a destination
    is cut off.  Links can also be failed mid-simulation with
    :meth:`fail_link` / healed with :meth:`heal_link` — the fault injection
    hooks the test suite exercises.  Per-destination routing tables are
    built lazily and invalidated *incrementally*: a link event drops only
    the tables it can actually stale (see :meth:`_invalidate`), so long
    fail/heal sequences keep most of the routing cache warm.

    ``router`` selects the next-hop policy (:mod:`repro.simulate.routing`):
    ``None`` / ``"deterministic"`` keep the historical smallest-index
    shortest-path policy on the engine's direct fast path; ``"adaptive"``
    (or any :class:`~repro.simulate.routing.Router` instance) routes each
    hop through the policy object and feeds the engine's per-cycle link
    utilisation and queue occupancy back into it after every active cycle.
    """

    def __init__(
        self,
        topology: Topology,
        link_capacity: int = 1,
        failed_links: Iterable[tuple[Node, Node]] | None = None,
        router: Router | str | None = None,
        engine: str = "auto",
    ):
        if link_capacity < 1:
            raise ValueError(f"link capacity must be >= 1, got {link_capacity}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.topology = topology
        self.link_capacity = link_capacity
        self.engine = engine
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
        #: dense next-hop tables from the DistanceOracle, fetched lazily for
        #: the fault-free classic path; ``False`` marks "topology too large"
        self._dense_nh = None
        self._dense_labels: list[Node] | None = None
        #: True while deliver_scheduled runs — bare fail/heal calls are then
        #: rejected (use a FaultSchedule for mid-delivery faults)
        self._delivering = False
        self._applying_fault = False
        for u, v in failed_links or ():
            self.fail_link(u, v)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> None:
        """Take the (bidirectional) link ``{u, v}`` down.

        Must name an actual topology edge.  Routing tables are invalidated
        *incrementally*: only destinations whose cached distances actually
        change are dropped (see :meth:`_invalidate`); every other table
        stays exact, so unrelated traffic keeps its warm caches across
        faults.
        """
        self._check_not_delivering("fail_link")
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        self.failed.add(frozenset((u, v)))
        # an explicit failure outranks a quarantine: cancel the probe heal
        self.quarantined.pop(frozenset((u, v)), None)
        self._invalidate(u, v, healed=False)

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
        self._check_not_delivering("heal_link")
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        # a heal restores full function: latency and byzantine faults clear
        # too, and a quarantined link is pardoned outright (no probe needed)
        link = frozenset((u, v))
        self.link_delays.pop(link, None)
        self.link_corruption.pop(link, None)
        self.link_flaky.pop(link, None)
        self.quarantined.pop(link, None)
        self.corruption_ewma.pop(link, None)
        if link not in self.failed:
            return  # already live: nothing changed, keep every warm table
        self.failed.discard(link)
        self._invalidate(u, v, healed=True)

    #: alias: fault-injection scripts read ``fail_link`` / ``heal_link``
    heal_link = restore_link

    def _revive_link(self, u: Node, v: Node) -> None:
        """Quarantine probe heal: restore *routability* only.

        Unlike :meth:`restore_link` this keeps the link's byzantine state
        (corruption/flaky rates): the probe optimistically readmits the
        link to the route set, and if it still corrupts, its EWMA climbs
        and quarantines it again.
        """
        link = frozenset((u, v))
        if link not in self.failed:
            return
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
        self._check_not_delivering("corrupt_link")
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        link = frozenset((u, v))
        if rate == 0.0:
            self.link_corruption.pop(link, None)
            if link not in self.link_flaky:
                self.corruption_ewma.pop(link, None)
        else:
            self.link_corruption[link] = (rate, seed)

    def flaky_link(self, u: Node, v: Node, rate: float, seed: int = 0) -> None:
        """Make the (bidirectional) link *flaky*: each crossing silently
        drops the message in transit with probability ``rate``.

        Like :meth:`corrupt_link` this is byzantine, not fail-stop — the
        link stays routable and the loss only surfaces through the
        integrity protocol (an abstracted NACK timeout triggers the same
        retransmit path as a detected corruption).  ``rate=0`` restores
        honest behaviour; :meth:`heal_link` also clears it.
        """
        self._check_not_delivering("flaky_link")
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        link = frozenset((u, v))
        if rate == 0.0:
            self.link_flaky.pop(link, None)
            if link not in self.link_corruption:
                self.corruption_ewma.pop(link, None)
        else:
            self.link_flaky[link] = (rate, seed)

    def delay_link(self, u: Node, v: Node, delay: int) -> None:
        """Make the (bidirectional) link slow: every crossing now takes
        ``1 + delay`` cycles instead of 1.

        This is a *latency* fault, not a failure: the link stays up and
        routable, distance tables are untouched (routing still counts it
        as one hop), messages queued behind it are never rerouted, and no
        repair is warranted — a slow link delivers, just late.  ``delay=0``
        restores full speed; :meth:`heal_link` also clears a delay.
        """
        self._check_not_delivering("delay_link")
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        if delay < 0:
            raise ValueError(f"link delay must be >= 0 extra cycles, got {delay}")
        if delay == 0:
            self.link_delays.pop(frozenset((u, v)), None)
        else:
            self.link_delays[frozenset((u, v))] = delay

    def fail_node(self, node: Node) -> None:
        """Take a whole processor down: fail every live incident link."""
        if not self.topology.has_node(node):
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        for v in list(self.live_neighbors(node)):
            self.fail_link(node, v)

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

    def _check_not_delivering(self, what: str) -> None:
        """Reject bare fault calls while a delivery is running.

        Before the fault subsystem existed, calling ``fail_link`` from a
        recorder hook (or any other callback reached mid-delivery) silently
        left queued messages routed via whatever tables they had already
        consulted that cycle — neither the old nor the new routes, and not
        reproducible.  Mid-delivery faults must go through a
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

    def _apply_fault_event(self, ev: "FaultEvent") -> list[tuple[Node, Node]]:
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
                if frozenset((ev.u, ev.v)) not in self.failed:
                    self.fail_link(ev.u, ev.v)
                    newly_failed.append((ev.u, ev.v))
                elif ev.v not in set(self.topology.neighbors(ev.u)):
                    raise ValueError(
                        f"{ev.u!r} -- {ev.v!r} is not a link of {self.topology.name}"
                    )
                else:
                    # failing an already-down link is a no-op, except that
                    # an explicit fail on a quarantined link cancels its
                    # probe heal (the failure outranks the quarantine)
                    self.quarantined.pop(frozenset((ev.u, ev.v)), None)
            elif ev.action == "heal_link":
                self.restore_link(ev.u, ev.v)
            elif ev.action == "delay_link":
                self.delay_link(ev.u, ev.v, ev.delay)
            elif ev.action == "corrupt_link":
                self.corrupt_link(ev.u, ev.v, ev.rate, ev.seed)
            elif ev.action == "flaky_link":
                self.flaky_link(ev.u, ev.v, ev.rate, ev.seed)
            elif ev.action == "fail_node":
                if not self.topology.has_node(ev.u):
                    raise ValueError(f"{ev.u!r} is not a node of {self.topology.name}")
                for v in list(self.live_neighbors(ev.u)):
                    self.fail_link(ev.u, v)
                    newly_failed.append((ev.u, v))
            else:  # heal_node
                self.heal_node(ev.u)
            return newly_failed
        finally:
            self._applying_fault = False

    def _invalidate(self, u: Node, v: Node, *, healed: bool) -> None:
        """Drop exactly the cached distance tables the link change stales.

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

        The equivalence with a full rebuild is property-tested under
        randomised fail/heal sequences.
        """
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

    def live_neighbors(self, node: Node):
        """The topology's neighbours reachable over non-failed links."""
        if not self.failed:
            yield from self.topology.neighbors(node)
            return
        for v in self.topology.neighbors(node):
            if frozenset((node, v)) not in self.failed:
                yield v

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dist_table(self, dst: Node) -> dict[Node, int]:
        table = self._dist_to.get(dst)
        if table is None:
            table = bfs_distances_from(self.live_neighbors, dst)
            self._dist_to[dst] = table
        return table

    def _dense_next_hop(self):
        """Lazily fetch the oracle's dense next-hop matrix (fault-free only).

        Returns the ``(n, n)`` int32 matrix, or ``False`` when the topology
        exceeds :data:`~repro.simulate.vector_engine.VECTOR_MAX_NODES` and
        the O(n^2) table is not worth building.
        """
        nh = self._dense_nh
        if nh is None:
            if not fits_dense_tables(self.topology):
                nh = self._dense_nh = False
            else:
                from ..analysis.oracle import oracle_for

                nh = self._dense_nh = oracle_for(self.topology).next_hop_matrix()
                self._dense_labels = list(self.topology.nodes())
        return nh

    def next_hop(self, node: Node, dst: Node) -> Node:
        """Deterministic shortest-path next hop from ``node`` towards ``dst``."""
        if node == dst:
            raise ValueError("message already at destination")
        if not self.failed:
            # fault-free: one gather from the oracle's dense table replaces
            # the per-call neighbour scan (same smallest-index tie-break,
            # property-tested equal in tests/test_vector_engine.py)
            nh = self._dense_next_hop()
            if nh is not False:
                topo = self.topology
                hop = nh[topo.index(node), topo.index(dst)]
                if hop >= 0:
                    return self._dense_labels[hop]
                raise UnreachableError(
                    f"{node!r} cannot reach {dst!r} (failed links)"
                )
        dist = self._dist_table(dst)
        if node not in dist:
            raise UnreachableError(f"{node!r} cannot reach {dst!r} (failed links)")
        return min(
            (v for v in self.live_neighbors(node) if dist.get(v, -2) == dist[node] - 1),
            key=self.topology.index,
        )

    def route(self, src: Node, dst: Node) -> list[Node]:
        """The full deterministic path ``src .. dst`` (inclusive)."""
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
        faults: "FaultSchedule | None" = None,
        ttl: int | None = None,
        engine: str | None = None,
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
            engine=engine,
        )

    def deliver_scheduled(
        self,
        schedule: list[tuple[int, Message]],
        *,
        recorder: Recorder | None = None,
        faults: "FaultSchedule | None" = None,
        ttl: int | None = None,
        fault_offset: int = 0,
        engine: str | None = None,
    ) -> DeliveryStats:
        """Deliver messages with per-message injection cycles.

        ``schedule`` holds ``(inject_after_cycle, message)`` pairs: a message
        scheduled at 0 starts moving in cycle 1, one scheduled at ``k``
        starts in cycle ``k+1``.  This models pipelined (non-barrier)
        execution where later supersteps launch while earlier traffic is
        still in flight — contrast with the BSP semantics of
        :func:`repro.simulate.mapping.simulate_on_host`.

        Sparse schedules are free: when the network drains, the clock jumps
        straight to the next injection cycle instead of spinning through
        the idle gap, so the cost is proportional to *active* cycles only
        (the reported ``cycles`` are identical either way).

        ``recorder`` (see :mod:`repro.obs`) receives per-message lifecycle
        events and an end-of-cycle sample for every active cycle; the
        default ``None`` / :class:`~repro.obs.NullRecorder` path costs one
        predicate per event site.

        Every ``msg_id`` in the schedule must be unique: ``delivery_cycle``
        and the trace event chains are keyed by it, so a duplicate would
        silently overwrite an earlier delivery record.  Duplicates raise
        :class:`ValueError` before anything is injected.

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

        ``engine`` overrides the network's configured engine for this one
        delivery (``"auto"`` / ``"classic"`` / ``"vector"``): ``auto``
        dispatches to the struct-of-arrays kernel
        (:mod:`repro.simulate.vector_engine`) whenever its preconditions
        hold and the classic loop otherwise; ``vector`` raises
        :class:`ValueError` when the kernel cannot run; ``classic`` always
        uses the reference loop.  Both engines return bit-identical
        :class:`DeliveryStats`.
        """
        mode = self.engine if engine is None else engine
        if mode not in ENGINES:
            raise ValueError(f"unknown engine {mode!r}; choose from {ENGINES}")
        rec = recorder if recorder is not None and recorder.enabled else None
        if mode != "classic":
            why = vector_supported(self, rec, faults, ttl)
            if why is None:
                return vector_deliver_scheduled(self, schedule)
            if mode == "vector":
                raise ValueError(
                    f"engine='vector' cannot run this delivery: {why}; "
                    "use engine='auto' to fall back to the classic loop"
                )
        router = self.router
        adaptive = router.adaptive
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
        # messages crossing a slow link, keyed by the cycle they arrive
        in_transit: dict[int, list[tuple[Node, tuple[int, Message]]]] = {}
        stats = DeliveryStats(cycles=0, n_messages=len(schedule))
        # queues[node] holds (seq, message) tuples in FIFO order
        queues: dict[Node, deque[tuple[int, Message]]] = defaultdict(deque)
        pending: dict[int, list[tuple[int, Message]]] = defaultdict(list)
        # fault-mode bookkeeping: injection cycle per message (TTL) and the
        # computed-but-unsent next hop of queued messages (reroute events)
        inject_at: dict[int, int] = {}
        planned: dict[int, tuple[Node, Node, Message]] = {}
        # integrity protocol (byzantine mode only): the payload word each
        # routed message currently carries, its pristine value (simulator
        # ground truth), the checksum injected at source, retransmission
        # attempts, the per-message byzantine-crossing counter salting the
        # coins, and the backoff pool of retransmissions keyed by the
        # cycle they re-enter their source queue
        word: dict[int, int] = {}
        orig_word: dict[int, int] = {}
        checksum: dict[int, int] = {}
        attempts: dict[int, int] = {}
        crossings: dict[int, int] = {}
        retrans: dict[int, list[Message]] = {}
        to_quarantine: list[frozenset] = []
        seq = 0
        last_self = 0
        seen_ids: set[int] = set()
        for inject, m in schedule:
            if inject < 0:
                raise ValueError("injection cycle must be non-negative")
            if m.msg_id in seen_ids:
                raise ValueError(
                    f"duplicate msg_id {m.msg_id} in schedule: delivery stats "
                    "and traces are keyed by msg_id, so ids must be unique"
                )
            seen_ids.add(m.msg_id)
            if m.src == m.dst:
                stats.delivery_cycle[m.msg_id] = inject
                last_self = max(last_self, inject)
                if rec is not None:
                    rec.on_inject(inject, m)
                    rec.on_delivered(inject, m, m.dst)
                continue
            if byz:
                w = _payload_word(m)
                word[m.msg_id] = orig_word[m.msg_id] = w
                checksum[m.msg_id] = _checksum(w)
            pending[inject].append((seq, m))
            seq += 1

        if adaptive:
            router.begin_delivery()
            cycle_links: Counter = Counter()
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
        topo_index = self.topology.index
        max_queue = 0
        fast = not fault_mode and not adaptive and rec is None and not delayed

        def _integrity_reject(m: Message, at: Node, cycle: int) -> None:
            # corrupted at arrival, or dropped in transit by a flaky link:
            # schedule a pristine retransmission from source after
            # exponential backoff, or fail the message with reason
            # "integrity" once retries exhaust — a *detected-wrong-data*
            # failure, distinct from the fail-stop "ttl"/"partitioned"
            nonlocal in_network
            mid = m.msg_id
            attempt = attempts.get(mid, 0) + 1
            if attempt > INTEGRITY_MAX_RETRIES:
                stats.failed[mid] = "integrity"
                planned.pop(mid, None)
                in_network -= 1
                for state in (word, orig_word, checksum, attempts, crossings):
                    state.pop(mid, None)
                if rec is not None:
                    rec.on_dropped(cycle, m, at, "integrity")
                return
            attempts[mid] = attempt
            stats.n_retransmits += 1
            word[mid] = orig_word[mid]
            back = min(1 << (attempt - 1), RETRANSMIT_BACKOFF_CAP)
            retrans.setdefault(cycle + back, []).append(m)
            if rec is not None:
                rec.on_retransmit(cycle, m, attempt)
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
                            rec.on_inject(cycle, m)
                cycle += 1
                while fi < n_fev and fev[fi].cycle - fault_offset <= cycle:
                    ev = fev[fi]
                    fi += 1
                    newly_failed = self._apply_fault_event(ev)
                    stats.faults_applied.append(ev)
                    if rec is not None:
                        rec.on_fault(cycle, ev.action, ev.u, ev.v)
                    if newly_failed and planned:
                        dead = {frozenset(l) for l in newly_failed}
                        for msg_id, (at, hop, msg) in list(planned.items()):
                            if frozenset((at, hop)) in dead:
                                del planned[msg_id]
                                stats.n_reroutes += 1
                                if rec is not None:
                                    rec.on_reroute(cycle, msg, at)
                if byz:
                    if self.quarantined and min(self.quarantined.values()) - fault_offset <= cycle:
                        # probe heals due at this boundary: optimistically
                        # readmit the link to the route set (its byzantine
                        # state is kept — still corrupting means the EWMA
                        # climbs and it re-quarantines)
                        due = sorted(
                            (
                                l
                                for l, c in self.quarantined.items()
                                if c - fault_offset <= cycle
                            ),
                            key=lambda l: sorted(map(topo_index, l)),
                        )
                        for link in due:
                            del self.quarantined[link]
                            u, v = sorted(link, key=topo_index)
                            self._revive_link(u, v)
                            if rec is not None:
                                rec.on_quarantine(cycle, u, v, "probe_heal")
                    if retrans and min(retrans) <= cycle:
                        for t in sorted(k for k in retrans if k <= cycle):
                            for m in retrans.pop(t):
                                # a retransmitted copy re-enters at the back
                                # of its source FIFO with a fresh sequence
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
                    if fast:
                        # the common configuration (deterministic router, no
                        # recorder, no faults) forwards with zero bookkeeping
                        # beyond the stats — branch-identical to the
                        # uninstrumented engine the overhead gates compare to
                        while q:
                            s, m = q.popleft()
                            hop = next_hop(node, m.dst)
                            if sent_per_link[hop] < link_capacity:
                                sent_per_link[hop] += 1
                                key = (node, hop)
                                link_traffic[key] = link_traffic.get(key, 0) + 1
                                arrivals[hop].append((s, m))
                            else:
                                kept.append((s, m))
                        queues[node] = kept
                        continue
                    while q:
                        s, m = q.popleft()
                        if fault_mode:
                            if ttl is not None and cycle - inject_at[m.msg_id] > ttl:
                                stats.failed[m.msg_id] = "ttl"
                                planned.pop(m.msg_id, None)
                                in_network -= 1
                                if rec is not None:
                                    rec.on_dropped(cycle, m, node, "ttl")
                                continue
                            try:
                                if adaptive:
                                    hop = router.next_hop(node, m.dst, m.msg_id)
                                else:
                                    hop = next_hop(node, m.dst)
                            except UnreachableError:
                                if fi < n_fev or self.quarantined:
                                    # a future event (or a quarantine probe
                                    # heal) may reconnect it: wait
                                    planned.pop(m.msg_id, None)
                                    kept.append((s, m))
                                    if rec is not None:
                                        rec.on_queued(cycle, m, node)
                                    continue
                                stats.failed[m.msg_id] = "partitioned"
                                planned.pop(m.msg_id, None)
                                in_network -= 1
                                if rec is not None:
                                    rec.on_dropped(cycle, m, node, "partitioned")
                                continue
                        elif adaptive:
                            hop = router.next_hop(node, m.dst, m.msg_id)
                        else:
                            hop = next_hop(node, m.dst)
                        if sent_per_link[hop] < link_capacity:
                            sent_per_link[hop] += 1
                            key = (node, hop)
                            link_traffic[key] = link_traffic.get(key, 0) + 1
                            if adaptive:
                                cycle_links[key] += 1
                            lost = False
                            if byz:
                                link = frozenset(key)
                                fl = self.link_flaky.get(link)
                                co = self.link_corruption.get(link)
                                if fl is not None or co is not None:
                                    mid = m.msg_id
                                    k = crossings.get(mid, 0) + 1
                                    crossings[mid] = k
                                    a = topo_index(node)
                                    b = topo_index(hop)
                                    if a > b:
                                        a, b = b, a
                                    bad = False
                                    if fl is not None and _byz_coin(
                                        fl[1], 1, a, b, mid, k
                                    ) < fl[0] * _TWO64:
                                        # flaky link: the crossing is lost in
                                        # transit; an abstracted NACK timeout
                                        # drives the same retransmit path as
                                        # a detected corruption
                                        lost = True
                                        bad = True
                                    elif co is not None and _byz_coin(
                                        co[1], 2, a, b, mid, k
                                    ) < co[0] * _TWO64:
                                        # corrupting link: XOR a nonzero
                                        # seeded pattern into the word
                                        word[mid] ^= _byz_coin(
                                            co[1], 3, a, b, mid, k
                                        ) or 1
                                        bad = True
                                    ew = QUARANTINE_EWMA_DECAY * self.corruption_ewma.get(
                                        link, 0.0
                                    )
                                    if bad:
                                        ew += 1.0 - QUARANTINE_EWMA_DECAY
                                    self.corruption_ewma[link] = ew
                                    if (
                                        ew >= QUARANTINE_THRESHOLD
                                        and link not in to_quarantine
                                    ):
                                        to_quarantine.append(link)
                            if fault_mode:
                                moved_any = True
                                planned.pop(m.msg_id, None)
                            if rec is not None:
                                rec.on_hop(cycle, m, node, hop)
                            if lost:
                                _integrity_reject(m, hop, cycle)
                                continue
                            d = (
                                self.link_delays.get(frozenset((node, hop)), 0)
                                if delayed
                                else 0
                            )
                            if d:
                                # slow link: the message left the sender but
                                # arrives d cycles late (latency fault)
                                in_transit.setdefault(cycle + d, []).append((hop, (s, m)))
                            else:
                                arrivals[hop].append((s, m))
                        else:
                            kept.append((s, m))
                            if fault_mode:
                                planned[m.msg_id] = (node, hop, m)
                            if rec is not None:
                                rec.on_queued(cycle, m, node)
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
                        if m.dst == node:
                            if byz:
                                mid = m.msg_id
                                w = word.get(mid)
                                if w is not None:
                                    if _checksum(w) != checksum[mid]:
                                        # end-to-end integrity check failed:
                                        # NACK — never deliver wrong data
                                        stats.n_corrupted += 1
                                        if rec is not None:
                                            rec.on_corrupt(cycle, m, node)
                                        _integrity_reject(m, node, cycle)
                                        continue
                                    if w != orig_word[mid]:
                                        # corrupted AND the checksum
                                        # collided: wrong data delivered
                                        # silently — the ground-truth
                                        # counter benchmarks gate at zero
                                        stats.n_silent_corruptions += 1
                                    for state in (
                                        word,
                                        orig_word,
                                        checksum,
                                        attempts,
                                        crossings,
                                    ):
                                        state.pop(mid, None)
                            delivery_cycle[m.msg_id] = cycle
                            in_network -= 1
                            if rec is not None:
                                rec.on_delivered(cycle, m, node)
                        else:
                            queues[node].append((s, m))
                # keep FIFO fairness stable: re-sort merged queues by sequence
                for node in arrivals:
                    if queues[node]:
                        queues[node] = deque(sorted(queues[node]))
                if to_quarantine:
                    # links whose corruption EWMA crossed the threshold this
                    # cycle leave the route set at the cycle end — the same
                    # incremental invalidation as a scheduled link failure —
                    # and get a probe heal QUARANTINE_PROBE_AFTER cycles out
                    for link in to_quarantine:
                        if link in self.failed:
                            continue
                        u, v = sorted(link, key=topo_index)
                        self._applying_fault = True
                        try:
                            self.fail_link(u, v)
                        finally:
                            self._applying_fault = False
                        self.quarantined[link] = (
                            cycle + fault_offset + QUARANTINE_PROBE_AFTER
                        )
                        self.corruption_ewma.pop(link, None)
                        stats.n_quarantined += 1
                        if rec is not None:
                            rec.on_quarantine(cycle, u, v, "quarantined")
                        if planned:
                            for msg_id, (at, php, msg) in list(planned.items()):
                                if frozenset((at, php)) == link:
                                    del planned[msg_id]
                                    stats.n_reroutes += 1
                                    if rec is not None:
                                        rec.on_reroute(cycle, msg, at)
                    to_quarantine.clear()
                if rec is not None:
                    rec.on_cycle_end(cycle, queues, in_network)
                if adaptive:
                    router.end_cycle(cycle, cycle_links, queues)
                    cycle_links = Counter()
                if fault_mode and in_network and not moved_any:
                    # whole network stalled: every queued message is waiting
                    # on a future heal (or doomed).  Fast-forward to whatever
                    # can change the picture — the next injection or the next
                    # fault event — or, with neither left, drop the stragglers
                    # as partitioned so the run terminates with a report.
                    targets = []
                    if inj_ptr < n_inj:
                        targets.append(inj_cycles[inj_ptr])
                    if fi < n_fev:
                        targets.append(fev[fi].cycle - fault_offset - 1)
                    if in_transit:
                        # messages on slow links are progress, just late:
                        # jump to the earliest arrival instead of dropping
                        targets.append(min(in_transit) - 1)
                    if retrans:
                        # messages backing off before retransmission: jump
                        # to the earliest re-injection boundary
                        targets.append(min(retrans) - 1)
                    if self.quarantined:
                        # a probe heal can reconnect waiting messages
                        targets.append(
                            min(self.quarantined.values()) - fault_offset - 1
                        )
                    if targets:
                        cycle = max(cycle, min(targets))
                    else:
                        for node in list(queues):
                            for s, m in queues[node]:
                                stats.failed[m.msg_id] = "partitioned"
                                planned.pop(m.msg_id, None)
                                in_network -= 1
                                if rec is not None:
                                    rec.on_dropped(cycle, m, node, "partitioned")
                            queues[node].clear()
        finally:
            self._delivering = False
        stats.max_queue = max_queue
        # the phase lasts until the final delivery, including a self-message
        # "delivered free" at a late scheduled cycle
        stats.cycles = max(cycle, last_self)
        return stats
