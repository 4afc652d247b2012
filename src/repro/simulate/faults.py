"""Fault injection: scripted/random link and node failures, repair, reports.

The paper's Theorem 1 leaves deliberate slack in every host processor (the
construction's "free places" argument keeps the load at 16 while the
algorithm only ever needs part of it), and a production simulator wants to
spend exactly that slack on surviving faults.  This module supplies the
declarative side of the story; the cycle-level semantics live in
:meth:`repro.simulate.engine.SynchronousNetwork.deliver_scheduled`:

* :class:`FaultEvent` / :class:`FaultSchedule` — a script of
  ``(cycle, fail_link | heal_link | fail_node | heal_node)`` events the
  engine applies at cycle boundaries *while messages are in flight*.
  Schedules load from JSON (:meth:`FaultSchedule.from_json`), compose
  (:meth:`FaultSchedule.compose`), and can be generated as seeded random
  chaos (:meth:`FaultSchedule.chaos`).  A node failure is shorthand for
  failing every incident link.
* :class:`FaultReport` — the structured outcome of a faulted run: events
  actually applied, per-message failure reasons (``"ttl"`` /
  ``"partitioned"`` / ``"integrity"``), the reroute count, and the
  integrity-protocol counters (corruptions detected, retransmissions,
  quarantines) that distinguish *wrong data* from *missing data*.
* :class:`DegradedResult` — what :func:`~repro.simulate.mapping.simulate_on_host`
  and the compute wrappers return when a fault schedule is supplied: the
  partial result plus the report, instead of an exception or a hang.
* :func:`repair_embedding` — when a host processor dies, remap its guest
  images onto nearby live hosts within the load-16 slack and report the
  new dilation/load, so Theorem 1's constants can be re-checked under
  attrition (embed with ``capacity < 16`` — e.g.
  ``embed_binary_tree(tree, capacity=12)`` — to have headroom).

Determinism: schedules are plain data, chaos generation is seeded, and the
engine applies events at fixed cycle boundaries, so a faulted run is
exactly as reproducible as a fault-free one.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable

from .._util import is_int, is_number
from ..core.embedding import Embedding
from ..networks import Topology, host_params

__all__ = [
    "FAULT_ACTIONS",
    "BYZANTINE_ACTIONS",
    "FAULT_SCHEDULE_VERSION",
    "FaultEvent",
    "FaultSchedule",
    "FaultReport",
    "DegradedResult",
    "RepairError",
    "RepairResult",
    "check_event_endpoints",
    "repair_embedding",
]

Node = Hashable

#: the scriptable actions; ``*_link`` events name both endpoints,
#: ``*_node`` events name one node (= all incident links at once).
#: ``delay_link`` is a *latency* fault: the link stays up and routable but
#: every crossing takes ``1 + delay`` cycles — a slow link, not a dead one
#: (``delay = 0`` restores full speed; ``heal_link`` also clears a delay).
#: ``corrupt_link`` / ``flaky_link`` are *byzantine* faults: the link stays
#: up and routable but each crossing flips the message's payload word
#: (``corrupt_link``) or silently drops the message in transit
#: (``flaky_link``) with seeded probability ``rate`` — the engine's
#: end-to-end integrity protocol (checksum verify, NACK + retransmit with
#: exponential backoff, EWMA-driven link quarantine) is what turns these
#: into *detected* failures instead of wrong results (``rate = 0`` restores
#: honest behaviour; ``heal_link`` also clears byzantine state).
FAULT_ACTIONS = (
    "fail_link", "heal_link", "fail_node", "heal_node", "delay_link",
    "corrupt_link", "flaky_link",
)

#: the actions that require a version-2 schedule document — a version-1
#: reader silently treating a corrupting link as healthy would be exactly
#: the silent-wrong-data failure the protocol exists to prevent
BYZANTINE_ACTIONS = ("corrupt_link", "flaky_link")

#: current schedule wire-format version.  ``to_obj`` only stamps it when a
#: byzantine event is present, so legacy schedules keep their historical
#: byte-for-byte form and old readers keep working on them.
FAULT_SCHEDULE_VERSION = 2




@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scripted fault: at ``cycle``, perform ``action`` on ``u`` (and ``v``).

    ``cycle`` semantics: the event takes effect at the boundary *entering*
    that cycle, before any forwarding of the cycle happens — so an event at
    cycle ``k`` affects the hops taken during cycle ``k``.  Events at cycle
    0 describe the initial state (applied before the first hop).
    """

    cycle: int
    action: str
    u: Node
    v: Node | None = None
    #: ``delay_link`` only: extra cycles per crossing (0 = back to full speed)
    delay: int | None = None
    #: ``corrupt_link`` / ``flaky_link`` only: per-crossing corruption/drop
    #: probability in [0, 1] (0 = back to honest behaviour)
    rate: float | None = None
    #: ``corrupt_link`` / ``flaky_link`` only: per-event seed for the
    #: stateless per-crossing coins (default 0); two events with different
    #: seeds corrupt different crossings of the same link
    seed: int | None = None

    def __post_init__(self):
        _check_event("FaultEvent", self.cycle, self.action, self.v,
                     self.delay, self.rate, self.seed)

    @property
    def byzantine(self) -> bool:
        """True for the wrong-data/drop actions that need a v2 schedule."""
        return self.action in BYZANTINE_ACTIONS

    def as_dict(self) -> dict:
        d = {"cycle": self.cycle, "action": self.action, "u": self.u}
        if self.v is not None:
            d["v"] = self.v
        if self.delay is not None:
            d["delay"] = self.delay
        if self.rate is not None:
            d["rate"] = self.rate
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, entry: dict, *, path: str = "FaultEvent") -> "FaultEvent":
        """Parse one event entry (no version gating — see
        :meth:`FaultSchedule.from_obj` for the document-level rules).
        Every problem is a :class:`ValueError` naming ``path`` and the field."""
        if not isinstance(entry, dict):
            raise ValueError(f"{path} must be an object, got {entry!r}")
        for key in ("cycle", "action", "u"):
            if key not in entry:
                raise ValueError(f"{path} is missing required field {key!r}")
        u = _node_field(entry["u"], f"{path}.u")
        v = entry.get("v")
        v = None if v is None else _node_field(v, f"{path}.v")
        cycle, action = entry["cycle"], entry["action"]
        delay, rate, seed = entry.get("delay"), entry.get("rate"), entry.get("seed")
        _check_event(path, cycle, action, v, delay, rate, seed)
        return cls(cycle, action, u, v, delay, rate, seed)


def _node_field(value, path: str) -> Node:
    """A node label read off the wire: an integer, a string, or a list of
    labels (which becomes a tuple, recursively)."""
    if isinstance(value, list):
        return tuple(_node_field(x, f"{path}[{i}]") for i, x in enumerate(value))
    if is_int(value) or isinstance(value, str):
        return value
    raise ValueError(
        f"{path} must be a node label (an integer, a string or a list of them), "
        f"got {value!r}"
    )


def _check_event(path: str, cycle, action, v, delay, rate, seed) -> None:
    """Raise ValueError, naming ``path`` and the field, unless these make a
    valid :class:`FaultEvent`."""
    if not is_int(cycle, 0):
        raise ValueError(f"{path}.cycle must be an integer >= 0, got {cycle!r}")
    if not isinstance(action, str) or action not in FAULT_ACTIONS:
        raise ValueError(
            f"{path}.action: unknown fault action {action!r}: expected one of "
            f"{FAULT_ACTIONS}"
        )
    if action.endswith("_link") and v is None:
        raise ValueError(f"{path}.v: {action} needs both endpoints, got v=None")
    if action.endswith("_node") and v is not None:
        raise ValueError(f"{path}.v: {action} names a single node, got v={v!r}")
    if action == "delay_link":
        if not is_int(delay, 0):
            raise ValueError(
                f"{path}.delay: delay_link needs an integer delay >= 0 extra "
                f"cycles, got {delay!r}"
            )
    elif delay is not None:
        raise ValueError(f"{path}.delay: {action} takes no delay, got delay={delay!r}")
    if action in BYZANTINE_ACTIONS:
        if not (is_number(rate) and 0.0 <= rate <= 1.0):
            raise ValueError(
                f"{path}.rate: {action} needs a rate probability in [0, 1], "
                f"got {rate!r}"
            )
        if seed is not None and not is_int(seed):
            raise ValueError(f"{path}.seed: {action} seed must be an int, got {seed!r}")
    else:
        if rate is not None:
            raise ValueError(f"{path}.rate: {action} takes no rate, got rate={rate!r}")
        if seed is not None:
            raise ValueError(f"{path}.seed: {action} takes no seed, got seed={seed!r}")


def check_event_endpoints(events, host: Topology, path: str) -> None:
    """Raise ValueError, naming ``path[i].u`` or ``path[i].v``, unless every
    event's endpoints are nodes of ``host`` and every ``*_link`` event's
    endpoints are joined by one of its links.

    Parsing an event checks its fields alone; an event the host cannot
    apply would otherwise parse, and then fail the run when it applies.
    ``host`` is a registered topology (:func:`repro.networks.build_host`).
    """
    where = f"host {host.name} {list(host_params(host).values())}"
    for i, ev in enumerate(events):
        what = f"({ev.action} at cycle {ev.cycle})"
        for end, node in (("u", ev.u), ("v", ev.v)):
            if (end == "u" or node is not None) and not host.has_node(node):
                raise ValueError(
                    f"{path}[{i}].{end}: {node!r} is not a node of {where} {what}"
                )
        if ev.v is not None and ev.v not in host.neighbors(ev.u):
            raise ValueError(
                f"{path}[{i}].v: {ev.u!r} -- {ev.v!r} is not a link of {where} {what}"
            )


class FaultSchedule:
    """An immutable, cycle-sorted script of :class:`FaultEvent`\\ s.

    Pass one to ``deliver_scheduled(..., faults=...)`` (or the
    ``simulate_on_host`` / ``simulated_reduction`` / CLI equivalents) and
    the engine applies each event at its cycle boundary, mid-delivery.
    Equal-cycle events apply in the order given.
    """

    def __init__(self, events: Any = ()):
        evs = []
        for e in events:
            if not isinstance(e, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(e)!r}")
            evs.append(e)
        # stable sort: equal-cycle events keep their given order
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(evs, key=lambda e: e.cycle)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = f"cycles {self.events[0].cycle}..{self.events[-1].cycle}" if self.events else "empty"
        return f"FaultSchedule({len(self.events)} events, {span})"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_obj(cls, obj: dict | list, *, path: str = "FaultSchedule") -> "FaultSchedule":
        """Build from parsed JSON: ``{"events": [...]}`` or a bare list.

        Each entry is ``{"cycle": int, "action": str, "u": node, "v": node?}``;
        list-valued node labels become tuples (recursively), matching the
        tuple labels of the grid/X-tree/CCC topologies.  Any malformed
        field is a :class:`ValueError` naming its path under ``path``,
        e.g. ``FaultSchedule.events[3].cycle must be an integer >= 0``.

        **Version gating**: byzantine actions (``corrupt_link`` /
        ``flaky_link``) are only accepted from documents that declare
        ``"version": 2`` — a bare list or an unversioned/version-1 dict
        containing them is rejected with the fix in the message.  Legacy
        documents (any form, legacy actions only) parse unchanged.
        """
        if isinstance(obj, dict):
            version = obj.get("version", 1)
            if not is_int(version) or version not in (1, FAULT_SCHEDULE_VERSION):
                raise ValueError(
                    f"{path}.version: unsupported fault-schedule version {version!r} "
                    f"(this build reads 1 and {FAULT_SCHEDULE_VERSION})"
                )
            if "events" not in obj:
                raise ValueError(f"{path} is missing required field 'events'")
            entries, where = obj["events"], f"{path}.events"
        elif isinstance(obj, list):
            version, entries, where = 1, obj, path
        else:
            raise ValueError(f"{path} must be an object or a list of events, got {obj!r}")
        if not isinstance(entries, list):
            raise ValueError(f"{where} must be a list of events, got {entries!r}")
        events = [
            FaultEvent.from_dict(entry, path=f"{where}[{i}]")
            for i, entry in enumerate(entries)
        ]
        if version < FAULT_SCHEDULE_VERSION:
            byz = sorted({e.action for e in events if e.byzantine})
            if byz:
                raise ValueError(
                    f"{path}.version: byzantine fault actions {byz} need a version-"
                    f"{FAULT_SCHEDULE_VERSION} schedule document: wrap the "
                    f'events as {{"version": {FAULT_SCHEDULE_VERSION}, '
                    '"events": [...]}'
                )
        return cls(events)

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultSchedule":
        """Load a schedule from a JSON file (see :meth:`from_obj`)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_obj(json.load(fh))

    def to_obj(self) -> dict:
        """The JSON-serialisable form (tuples become lists on dump).

        Stamps ``"version": 2`` exactly when a byzantine event is present:
        legacy schedules keep their historical unversioned form (byte-stable
        files, old readers keep working), while a v2 document makes an old
        reader fail loudly instead of running a corrupting link as healthy.
        """
        doc: dict = {"events": [e.as_dict() for e in self.events]}
        if any(e.byzantine for e in self.events):
            return {"version": FAULT_SCHEDULE_VERSION, **doc}
        return doc

    def to_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_obj(), fh, indent=2)
            fh.write("\n")

    def compose(self, other: "FaultSchedule") -> "FaultSchedule":
        """Merge two scripts into one (stable by cycle; self's ties first)."""
        return FaultSchedule([*self.events, *other.events])

    __or__ = compose

    def shifted(self, offset: int) -> "FaultSchedule":
        """The same script, ``offset`` cycles later."""
        return FaultSchedule(
            [
                FaultEvent(e.cycle + offset, e.action, e.u, e.v, e.delay, e.rate, e.seed)
                for e in self.events
            ]
        )

    @classmethod
    def slow_link(
        cls, u: Node, v: Node, *, slow_at: int, delay: int, restore_at: int | None = None
    ) -> "FaultSchedule":
        """A latency fault: the link delays crossings by ``delay`` cycles
        from ``slow_at`` on (back to full speed at ``restore_at`` when
        given).  The link never dies — routing is unchanged and no repair
        is ever warranted."""
        events = [FaultEvent(slow_at, "delay_link", u, v, delay=delay)]
        if restore_at is not None:
            if restore_at <= slow_at:
                raise ValueError(
                    f"restore_at must be after slow_at, got {restore_at} <= {slow_at}"
                )
            events.append(FaultEvent(restore_at, "delay_link", u, v, delay=0))
        return cls(events)

    @classmethod
    def single_link(
        cls, u: Node, v: Node, *, fail_at: int, heal_at: int | None = None
    ) -> "FaultSchedule":
        """The canonical experiment: one link down at ``fail_at`` (healed at
        ``heal_at`` when given) — the mid-delivery single-fault probe the
        benchmarks gate on."""
        events = [FaultEvent(fail_at, "fail_link", u, v)]
        if heal_at is not None:
            if heal_at <= fail_at:
                raise ValueError(f"heal_at must be after fail_at, got {heal_at} <= {fail_at}")
            events.append(FaultEvent(heal_at, "heal_link", u, v))
        return cls(events)

    @classmethod
    def byzantine_link(
        cls,
        u: Node,
        v: Node,
        *,
        corrupt_at: int,
        rate: float,
        seed: int = 0,
        restore_at: int | None = None,
        flaky: bool = False,
    ) -> "FaultSchedule":
        """A byzantine fault on one link: from ``corrupt_at`` on, each
        crossing flips the payload word (or, with ``flaky=True``, drops the
        message in transit) with seeded probability ``rate`` — restored to
        honest behaviour at ``restore_at`` when given.  The link stays up
        and routable throughout; detection and recovery are the engine's
        integrity protocol, not the router's."""
        action = "flaky_link" if flaky else "corrupt_link"
        events = [FaultEvent(corrupt_at, action, u, v, rate=rate, seed=seed)]
        if restore_at is not None:
            if restore_at <= corrupt_at:
                raise ValueError(
                    f"restore_at must be after corrupt_at, got {restore_at} <= {corrupt_at}"
                )
            events.append(FaultEvent(restore_at, action, u, v, rate=0.0, seed=seed))
        return cls(events)

    @classmethod
    def chaos(
        cls,
        topology,
        *,
        n_cycles: int,
        link_rate: float,
        seed: int = 0,
        heal_after: int | None = 8,
        node_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        flaky_rate: float = 0.0,
        byzantine_p: float = 0.25,
    ) -> "FaultSchedule":
        """Seeded random chaos: per cycle, fail a uniform link with
        probability ``link_rate`` (and a uniform node with ``node_rate``),
        healing each failure ``heal_after`` cycles later (``None`` = never).

        ``corrupt_rate`` / ``flaky_rate`` add a byzantine mix: per cycle,
        with that probability a uniform link starts corrupting (dropping)
        crossings at per-crossing probability ``byzantine_p``, restored to
        honest behaviour ``heal_after`` cycles later.  Each byzantine event
        gets its own rng-drawn coin seed, so the whole mix stays fully
        deterministic in ``seed``.

        Fully deterministic in ``seed``.  Overlapping scripts are legal:
        failing an already-failed link is a no-op, and a heal always
        revives the link, so interleaved fail/heal windows on one link
        resolve in schedule order (the engine applies events at cycle
        boundaries in sequence).
        """
        for name, p in (
            ("link_rate", link_rate), ("node_rate", node_rate),
            ("corrupt_rate", corrupt_rate), ("flaky_rate", flaky_rate),
            ("byzantine_p", byzantine_p),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
        if n_cycles < 0:
            raise ValueError(f"n_cycles must be non-negative, got {n_cycles}")
        rng = random.Random(seed)
        edges = list(topology.edges())
        nodes = list(topology.nodes())
        events: list[FaultEvent] = []
        for c in range(1, n_cycles + 1):
            if link_rate and rng.random() < link_rate:
                u, v = edges[rng.randrange(len(edges))]
                events.append(FaultEvent(c, "fail_link", u, v))
                if heal_after is not None:
                    events.append(FaultEvent(c + heal_after, "heal_link", u, v))
            if node_rate and rng.random() < node_rate:
                n = nodes[rng.randrange(len(nodes))]
                events.append(FaultEvent(c, "fail_node", n))
                if heal_after is not None:
                    events.append(FaultEvent(c + heal_after, "heal_node", n))
            for action, p_start in (
                ("corrupt_link", corrupt_rate),
                ("flaky_link", flaky_rate),
            ):
                if p_start and rng.random() < p_start:
                    u, v = edges[rng.randrange(len(edges))]
                    coin_seed = rng.randrange(1 << 31)
                    events.append(
                        FaultEvent(c, action, u, v, rate=byzantine_p, seed=coin_seed)
                    )
                    if heal_after is not None:
                        events.append(
                            FaultEvent(
                                c + heal_after, action, u, v, rate=0.0, seed=coin_seed
                            )
                        )
        return cls(events)


# ----------------------------------------------------------------------
# Outcome reporting
# ----------------------------------------------------------------------
@dataclass
class FaultReport:
    """Structured outcome of one faulted run.

    ``failed`` maps message keys to the drop reason — ``"ttl"`` (hop/cycle
    budget exhausted), ``"partitioned"`` (destination unreachable with no
    heal event left that could reconnect it) or ``"integrity"`` (every
    retransmission attempt of a corrupted/dropped payload was exhausted —
    *wrong data detected*, as opposed to the other two reasons' *missing
    data*).  Keys are engine ``msg_id``\\ s; the compute wrappers, whose ids
    restart per superstep, use ``(superstep, msg_id)`` tuples.
    """

    n_messages: int = 0
    n_delivered: int = 0
    applied: tuple[FaultEvent, ...] = ()
    failed: dict[Any, str] = field(default_factory=dict)
    n_reroutes: int = 0
    #: deliveries rejected by the end-to-end checksum (each one triggered a
    #: NACK + retransmission from source, or an ``"integrity"`` failure)
    n_corrupted: int = 0
    #: source retransmissions the integrity protocol scheduled
    n_retransmits: int = 0
    #: links the engine quarantined after their corruption EWMA crossed the
    #: threshold (removed from the route set until a probe heals them)
    n_quarantined: int = 0

    @property
    def complete(self) -> bool:
        """True when every routed message was delivered despite the faults."""
        return not self.failed

    @property
    def n_wrong_data(self) -> int:
        """Messages whose payload arrived *wrong* (detected, retries
        exhausted) — the byzantine failure class, distinct from missing."""
        return sum(1 for r in self.failed.values() if r == "integrity")

    @property
    def n_missing(self) -> int:
        """Messages that went *missing* (TTL expiry or partition) — the
        fail-stop failure class."""
        return sum(1 for r in self.failed.values() if r in ("ttl", "partitioned"))

    def reasons(self) -> Counter:
        """Failure-reason histogram, e.g. ``{"partitioned": 3, "ttl": 1}``."""
        return Counter(self.failed.values())

    def summary(self) -> dict:
        out = {
            "n_messages": self.n_messages,
            "n_delivered": self.n_delivered,
            "n_failed": len(self.failed),
            "fault_events_applied": len(self.applied),
            "n_reroutes": self.n_reroutes,
            "failure_reasons": dict(self.reasons()),
        }
        if self.n_corrupted or self.n_retransmits or self.n_quarantined:
            out["n_corrupted"] = self.n_corrupted
            out["n_retransmits"] = self.n_retransmits
            out["n_quarantined"] = self.n_quarantined
            out["n_wrong_data"] = self.n_wrong_data
            out["n_missing"] = self.n_missing
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        reasons = ", ".join(f"{k}: {v}" for k, v in sorted(self.reasons().items()))
        byz = (
            f", {self.n_corrupted} corrupted/{self.n_retransmits} retransmits"
            f"/{self.n_quarantined} quarantined"
            if self.n_corrupted or self.n_retransmits or self.n_quarantined
            else ""
        )
        return (
            f"faults: {len(self.applied)} events applied, {self.n_reroutes} reroutes{byz}; "
            f"{self.n_delivered}/{self.n_messages} messages delivered"
            + (f", {len(self.failed)} failed ({reasons})" if self.failed else "")
        )


@dataclass
class DegradedResult:
    """A partial simulation outcome under faults: result + fault report.

    Returned by :func:`~repro.simulate.mapping.simulate_on_host`,
    :func:`~repro.simulate.compute.simulated_reduction` and
    :func:`~repro.simulate.compute.simulated_prefix` whenever a fault
    schedule is supplied — even when every message survived (then
    ``complete`` is True and ``result`` equals what the fault-free call
    would have returned, modulo the extra cycles the faults cost).
    """

    result: Any
    report: FaultReport

    @property
    def complete(self) -> bool:
        return self.report.complete

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.result}\n{self.report}"


# ----------------------------------------------------------------------
# Embedding repair under host attrition
# ----------------------------------------------------------------------
class RepairError(RuntimeError):
    """No live host with remaining slack can absorb an orphaned guest."""


@dataclass
class RepairResult:
    """Outcome of :func:`repair_embedding`: the new embedding + quality delta."""

    embedding: Any
    #: guest node -> (old host, new host), for every remapped image
    moved: dict[int, tuple[Any, Any]]
    dilation_before: int
    dilation_after: int
    load_factor_before: int
    load_factor_after: int

    @property
    def n_moved(self) -> int:
        return len(self.moved)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"repair: moved {self.n_moved} guest images; dilation "
            f"{self.dilation_before} -> {self.dilation_after}, load "
            f"{self.load_factor_before} -> {self.load_factor_after}"
        )


def repair_embedding(
    embedding,
    dead_nodes,
    *,
    max_load: int = 16,
    failed_links=(),
    extra_load=None,
) -> RepairResult:
    """Remap the guest images of dead host nodes onto nearby live hosts.

    The repair is greedy and deterministic: dead hosts are processed in
    canonical index order, their resident guests in guest order; each
    orphaned guest moves to the *nearest* live host (BFS over live links,
    skipping every dead node) whose load is still below ``max_load``,
    breaking distance ties towards the candidate minimising the new
    maximum distance to the images of the guest's tree neighbours (then
    smallest host index).  This is exactly the slack argument of Theorem 1
    run in reverse: the construction guarantees load <= 16, so any
    embedding built with headroom (e.g. ``embed_binary_tree(tree,
    capacity=12)``) can absorb a dying processor's 12 images into its
    neighbourhood without breaching the paper's load constant — at a
    dilation cost the returned report makes explicit.

    ``extra_load`` maps host nodes to load contributed by *other* tenants
    sharing the host (the multi-tenant runtime passes the combined loads of
    every co-resident job): a candidate is admissible only while its own
    images plus the extra load stay below ``max_load``, so a repair never
    breaches the load-16 bound network-wide even though this embedding
    alone cannot see the other jobs.

    Raises :class:`RepairError` when some orphan has no reachable live
    host with remaining slack (the attrition exceeded the slack).
    """
    host = embedding.host
    guest = embedding.guest
    dead = set(dead_nodes)
    for d in dead:
        if not host.has_node(d):
            raise ValueError(f"{d!r} is not a node of {host.name}")
    down = {frozenset(l) for l in failed_links}

    def live_neighbors(node):
        for v in host.neighbors(node):
            if v not in dead and frozenset((node, v)) not in down:
                yield v

    new_phi = dict(embedding.phi)
    loads = Counter(new_phi.values())
    if extra_load:
        loads.update(extra_load)
    dilation_before = embedding.dilation()
    load_before = embedding.load_factor()
    moved: dict[int, tuple[Any, Any]] = {}

    for d in sorted(dead, key=host.index):
        orphans = sorted(v for v, h in new_phi.items() if h == d)
        if not orphans:
            continue
        # BFS ring order from the dead host over the live subgraph: start
        # from its live neighbours (the dead node itself cannot relay).
        ring: list[tuple[int, Any]] = []
        seen = {d}
        frontier = deque()
        for v in sorted(host.neighbors(d), key=host.index):
            if v not in dead and frozenset((d, v)) not in down:
                seen.add(v)
                frontier.append((1, v))
                ring.append((1, v))
        while frontier:
            dist, u = frontier.popleft()
            for v in sorted(live_neighbors(u), key=host.index):
                if v not in seen:
                    seen.add(v)
                    frontier.append((dist + 1, v))
                    ring.append((dist + 1, v))
        for g in orphans:
            neighbor_images = [
                new_phi[w]
                for w in guest.neighbors(g)
                if new_phi[w] != d and new_phi[w] not in dead
            ]
            best = None
            best_key = None
            best_dist = None
            for dist, cand in ring:
                if best_dist is not None and dist > best_dist:
                    break  # rings are distance-sorted: nearest tier decided
                if loads[cand] >= max_load:
                    continue
                stretch = max(
                    (host.distance(cand, img) for img in neighbor_images),
                    default=0,
                )
                key = (stretch, host.index(cand))
                if best_key is None or key < best_key:
                    best, best_key, best_dist = cand, key, dist
            if best is None:
                raise RepairError(
                    f"no live host with load < {max_load} can absorb guest {g} "
                    f"(dead host {d!r}): attrition exceeds the embedding's slack"
                )
            new_phi[g] = best
            loads[d] -= 1
            loads[best] += 1
            moved[g] = (d, best)

    repaired = Embedding(guest, host, new_phi)
    return RepairResult(
        embedding=repaired,
        moved=moved,
        dilation_before=dilation_before,
        dilation_after=repaired.dilation(),
        load_factor_before=load_before,
        load_factor_after=repaired.load_factor(),
    )
