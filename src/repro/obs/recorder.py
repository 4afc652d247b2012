"""Trace recorders for the synchronous network engine.

The engine (:meth:`repro.simulate.engine.SynchronousNetwork.deliver_scheduled`)
emits two kinds of signals through a :class:`Recorder`:

* **per-message lifecycle events** — ``inject`` (the message enters its
  source's output queue), ``hop`` (it crosses a directed link), ``queued``
  (link capacity forced it to wait a cycle), ``delivered`` (it reached its
  destination); fault-tolerant deliveries add ``fault`` (a schedule event
  was applied), ``reroute`` (a queued message's planned next hop died under
  it) and ``dropped`` (TTL expiry, partition, or integrity-retry
  exhaustion — the message will never be delivered); byzantine deliveries
  add ``corrupt`` (a checksum mismatch was caught at the destination),
  ``retransmit`` (the integrity protocol re-sent a message from source)
  and ``quarantine`` (a link left or re-entered the route set);
* **per-cycle samples** — queue occupancy per node, utilisation per
  directed link, and the number of in-flight messages, captured at the end
  of every active cycle.

The default :class:`NullRecorder` keeps ``enabled = False``; the engine
normalises it to ``None`` at entry, so an unobserved delivery still runs
on the vector kernel, and the reference loop pays one predicate per event
site and nothing else.

:class:`TraceRecorder` has two capture modes:

* **in-memory** (default): everything accumulates in ``events`` /
  ``cycles`` and :meth:`TraceRecorder.to_jsonl` exports the trace
  afterwards (header first);
* **streaming** (``TraceRecorder(path=..., flush_every=N)``): records are
  appended to the JSONL file as they happen, in capture order, buffered
  ``flush_every`` records at a time — memory stays bounded no matter how
  many messages the run traces (the ROADMAP's 10^6+-message case).  The
  header line (with the final summary) is written at :meth:`close`, so it
  is the *last* line of a streamed file; :func:`repro.analysis.trace_report.load_trace`
  accepts the header anywhere.  Aggregates (:meth:`summary`,
  :meth:`link_utilisation_totals`, peaks) are maintained incrementally and
  work identically in both modes; only the raw-list accessors
  (:meth:`message_events`, :meth:`delivery_cycles`) need the in-memory
  lists and raise in streaming mode.

Invariants the test suite pins (``tests/test_obs.py``):

* summing per-cycle ``link_utilisation`` over all samples reproduces
  :attr:`DeliveryStats.link_traffic` exactly;
* each message's event chain is ``inject -> (hop | queued)* -> delivered``
  with contiguous hops, and the ``delivered`` cycle equals
  ``DeliveryStats.delivery_cycle``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

__all__ = [
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "TraceEvent",
    "CycleSample",
]


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event of one message (or of the network itself).

    ``kind`` is one of ``inject`` / ``hop`` / ``queued`` / ``delivered`` /
    ``fault`` / ``reroute`` / ``dropped`` / ``corrupt`` / ``retransmit`` /
    ``quarantine`` / ``repair`` / ``migrate`` / ``batch_fallback`` (the
    last three are runtime-level: ``node`` holds the job name for
    ``repair``/``migrate``; ``batch_fallback`` carries the ``";"``-joined
    reasons in ``detail``).  ``node`` is the location (for ``hop`` the link
    *source*; ``link_dst`` then holds the other endpoint; for ``fault`` /
    ``quarantine`` the pair names the affected link or node).  ``detail``
    carries the fault action (``fail_link``, ...), the drop reason
    (``ttl`` / ``partitioned`` / ``integrity``), the retransmit attempt
    (``attempt=N``), or the quarantine transition (``quarantined`` /
    ``probe_heal``).  ``fault`` and ``quarantine`` events are
    network-level and use ``msg_id = -1``.  ``phase`` indexes into the
    recorder's ``phases`` list (supersteps, when driven through
    ``simulate_on_host``).
    """

    cycle: int
    kind: str
    msg_id: int
    node: Any = None
    link_dst: Any = None
    phase: int = 0
    detail: str | None = None

    def as_dict(self) -> dict:
        d = {"type": "event", "cycle": self.cycle, "kind": self.kind,
             "msg_id": self.msg_id, "phase": self.phase}
        if self.node is not None:
            d["node"] = repr(self.node)
        if self.link_dst is not None:
            d["link_dst"] = repr(self.link_dst)
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass
class CycleSample:
    """End-of-cycle snapshot of the network state."""

    cycle: int
    phase: int
    #: messages waiting in each node's output queue (empty queues omitted)
    queue_occupancy: dict[Any, int] = field(default_factory=dict)
    #: messages that crossed each directed link *this cycle*
    link_utilisation: dict[tuple[Any, Any], int] = field(default_factory=dict)
    #: messages injected but not yet delivered, after this cycle
    in_flight: int = 0

    @property
    def max_queue(self) -> int:
        return max(self.queue_occupancy.values(), default=0)

    @property
    def messages_moved(self) -> int:
        return sum(self.link_utilisation.values())

    def as_dict(self) -> dict:
        return {
            "type": "cycle",
            "cycle": self.cycle,
            "phase": self.phase,
            "queue_occupancy": {repr(k): v for k, v in self.queue_occupancy.items()},
            "link_utilisation": {f"{u!r}->{v!r}": c for (u, v), c in self.link_utilisation.items()},
            "in_flight": self.in_flight,
        }


class Recorder:
    """The hook protocol the engine drives (all hooks no-ops here).

    Subclasses set ``enabled = True`` to receive callbacks; the engine
    skips every call site when the flag is false, so the protocol costs
    nothing unless someone is listening.
    """

    enabled: bool = False

    def begin_phase(self, label: str) -> None:
        """A new logical phase starts (e.g. one BSP superstep)."""

    def on_inject(self, cycle: int, msg) -> None:
        """``msg`` entered its source node's output queue at ``cycle``."""

    def on_hop(self, cycle: int, msg, node, hop) -> None:
        """``msg`` crossed the directed link ``node -> hop`` during ``cycle``."""

    def on_queued(self, cycle: int, msg, node) -> None:
        """``msg`` waited at ``node`` this cycle (link capacity exhausted)."""

    def on_delivered(self, cycle: int, msg, node) -> None:
        """``msg`` arrived at its destination ``node`` at ``cycle``."""

    def on_cycle_end(self, cycle: int, queues, in_flight: int) -> None:
        """One active cycle finished; ``queues`` maps node -> deque."""

    def on_fault(self, cycle: int, action: str, u, v) -> None:
        """A fault-schedule event was applied at the ``cycle`` boundary.

        ``action`` is one of ``fail_link`` / ``heal_link`` / ``fail_node``
        / ``heal_node``; ``v`` is ``None`` for node events.
        """

    def on_reroute(self, cycle: int, msg, node) -> None:
        """``msg``, queued at ``node``, lost its planned next hop to a
        fault and will re-route against the updated tables."""

    def on_dropped(self, cycle: int, msg, node, reason: str) -> None:
        """``msg`` was dropped at ``node`` and will never be delivered;
        ``reason`` is ``"ttl"``, ``"partitioned"``, or ``"integrity"``
        (corrupted/lost past the retransmit budget — detected wrong data,
        not silent loss)."""

    def on_corrupt(self, cycle: int, msg, node) -> None:
        """``msg`` arrived at its destination ``node`` with a checksum
        mismatch: the delivery was refused and the integrity protocol
        will retransmit (or fail it with reason ``"integrity"``)."""

    def on_retransmit(self, cycle: int, msg, attempt: int) -> None:
        """The integrity protocol scheduled retransmission ``attempt`` of
        ``msg`` from its source, after exponential backoff."""

    def on_quarantine(self, cycle: int, u, v, transition: str) -> None:
        """Link ``{u, v}`` changed quarantine state: ``transition`` is
        ``"quarantined"`` (corruption EWMA crossed the threshold; the link
        left the route set) or ``"probe_heal"`` (the probe optimistically
        readmitted it)."""

    def on_repair(self, cycle: int, job: str, moved: dict) -> None:
        """The runtime repaired ``job``'s embedding online at global
        ``cycle``: ``moved`` maps each remapped guest node to its
        ``(old host, new host)`` pair (see
        :func:`repro.simulate.faults.repair_embedding`)."""

    def on_migrate(self, cycle: int, job: str, msg_ids) -> None:
        """Messages ``msg_ids`` of ``job``, stranded by a node death, are
        being re-sent to their repaired images at global ``cycle``."""

    def on_batch_fallback(self, cycle: int, reasons: str, n_active: int) -> None:
        """A runtime batch round degraded to per-job stepping at global
        ``cycle``; ``reasons`` is a ``";"``-joined list (``faults``,
        ``recorder``, ``adaptive_router``, ``ttl``, ``single_job``,
        ``link_overlap``) and ``n_active`` the runnable jobs that round."""


class NullRecorder(Recorder):
    """The do-nothing default: ``enabled`` stays false."""


class TraceRecorder(Recorder):
    """Capture of events and per-cycle samples, in memory or streamed.

    With no arguments, ``events`` and ``cycles`` accumulate across every
    delivery driven with this recorder; :meth:`begin_phase` partitions them
    (BSP supersteps restart their cycle counters, so ``(phase, cycle)`` is
    the unique key).

    With ``path=...`` the recorder *streams*: records append to the JSONL
    file in capture order (buffered ``flush_every`` at a time), the
    in-memory lists stay empty, and :meth:`close` flushes the tail and
    writes the summary header as the file's last line.  Use it as a
    context manager for the close.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None, flush_every: int = 1000) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.events: list[TraceEvent] = []
        self.cycles: list[CycleSample] = []
        self.phases: list[str] = []
        self.n_injected = 0
        self.n_delivered = 0
        self.n_dropped = 0
        self.n_faults = 0
        self.n_reroutes = 0
        self.n_corrupted = 0
        self.n_retransmits = 0
        self.n_quarantines = 0
        self.n_repairs = 0
        self.n_migrated = 0
        self.n_batch_fallbacks = 0
        self._phase = 0
        self._cycle_links: Counter = Counter()
        # incremental aggregates: identical in both modes, so summaries
        # never need the raw lists
        self._n_events = 0
        self._active_cycles = 0
        self._moved = 0
        self._peak_in_flight = 0
        self._peak_queue = 0
        self._link_totals: Counter = Counter()
        # streaming state
        self.path = Path(path) if path is not None else None
        self.flush_every = flush_every
        self._buf: list[str] = []
        self._fh: TextIO | None = None
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")

    @property
    def streaming(self) -> bool:
        """True when this recorder writes to disk instead of memory."""
        return self.path is not None

    # -- engine hooks --------------------------------------------------
    def begin_phase(self, label: str) -> None:
        # Traffic recorded before any begin_phase (direct ``deliver`` use,
        # not via ``simulate_on_host``) sits at the implicit phase 0; the
        # first explicit phase must not collide with it, so materialise an
        # "(unphased)" entry to keep those indices labelled correctly.
        if not self.phases and (self._n_events or self._active_cycles):
            self.phases.append("(unphased)")
        self.phases.append(label)
        self._phase = len(self.phases) - 1

    def _record_event(self, event: TraceEvent) -> None:
        self._n_events += 1
        if self._fh is not None:
            self._buf.append(json.dumps(event.as_dict()))
            if len(self._buf) >= self.flush_every:
                self.flush()
        else:
            self.events.append(event)

    def on_inject(self, cycle: int, msg) -> None:
        self.n_injected += 1
        self._record_event(TraceEvent(cycle, "inject", msg.msg_id, msg.src, phase=self._phase))

    def on_hop(self, cycle: int, msg, node, hop) -> None:
        self._cycle_links[(node, hop)] += 1
        self._record_event(TraceEvent(cycle, "hop", msg.msg_id, node, hop, phase=self._phase))

    def on_queued(self, cycle: int, msg, node) -> None:
        self._record_event(TraceEvent(cycle, "queued", msg.msg_id, node, phase=self._phase))

    def on_delivered(self, cycle: int, msg, node) -> None:
        self.n_delivered += 1
        self._record_event(TraceEvent(cycle, "delivered", msg.msg_id, node, phase=self._phase))

    def on_fault(self, cycle: int, action: str, u, v) -> None:
        self.n_faults += 1
        self._record_event(
            TraceEvent(cycle, "fault", -1, u, v, phase=self._phase, detail=action)
        )

    def on_reroute(self, cycle: int, msg, node) -> None:
        self.n_reroutes += 1
        self._record_event(TraceEvent(cycle, "reroute", msg.msg_id, node, phase=self._phase))

    def on_dropped(self, cycle: int, msg, node, reason: str) -> None:
        self.n_dropped += 1
        self._record_event(
            TraceEvent(cycle, "dropped", msg.msg_id, node, phase=self._phase, detail=reason)
        )

    def on_corrupt(self, cycle: int, msg, node) -> None:
        self.n_corrupted += 1
        self._record_event(TraceEvent(cycle, "corrupt", msg.msg_id, node, phase=self._phase))

    def on_retransmit(self, cycle: int, msg, attempt: int) -> None:
        self.n_retransmits += 1
        self._record_event(
            TraceEvent(cycle, "retransmit", msg.msg_id, msg.src, phase=self._phase,
                       detail=f"attempt={attempt}")
        )

    def on_quarantine(self, cycle: int, u, v, transition: str) -> None:
        self.n_quarantines += 1
        self._record_event(
            TraceEvent(cycle, "quarantine", -1, u, v, phase=self._phase,
                       detail=transition)
        )

    def on_repair(self, cycle: int, job: str, moved: dict) -> None:
        self.n_repairs += 1
        self._record_event(
            TraceEvent(cycle, "repair", -1, job, phase=self._phase,
                       detail=f"moved={len(moved)}")
        )

    def on_migrate(self, cycle: int, job: str, msg_ids) -> None:
        ids = list(msg_ids)
        self.n_migrated += len(ids)
        self._record_event(
            TraceEvent(cycle, "migrate", -1, job, phase=self._phase,
                       detail=f"messages={len(ids)}")
        )

    def on_batch_fallback(self, cycle: int, reasons: str, n_active: int) -> None:
        self.n_batch_fallbacks += 1
        self._record_event(
            TraceEvent(cycle, "batch_fallback", -1, phase=self._phase,
                       detail=f"{reasons} n_active={n_active}")
        )

    def on_cycle_end(self, cycle: int, queues, in_flight: int) -> None:
        sample = CycleSample(
            cycle=cycle,
            phase=self._phase,
            queue_occupancy={n: len(q) for n, q in queues.items() if q},
            link_utilisation=dict(self._cycle_links),
            in_flight=in_flight,
        )
        self._cycle_links.clear()
        self._active_cycles += 1
        self._moved += sample.messages_moved
        self._peak_in_flight = max(self._peak_in_flight, sample.in_flight)
        self._peak_queue = max(self._peak_queue, sample.max_queue)
        self._link_totals.update(sample.link_utilisation)
        if self._fh is not None:
            self._buf.append(json.dumps(sample.as_dict()))
            if len(self._buf) >= self.flush_every:
                self.flush()
        else:
            self.cycles.append(sample)

    # -- streaming lifecycle -------------------------------------------
    def flush(self) -> None:
        """Write buffered records to the stream (no-op in-memory)."""
        if self._fh is not None and self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()

    def close(self) -> None:
        """Flush the stream and append the summary header line.

        Idempotent; only meaningful in streaming mode.  The header is the
        *last* line of a streamed trace (the summary is only known at the
        end) — ``load_trace`` accepts it at any position.
        """
        if self._fh is None:
            return
        self.flush()
        header = {"type": "header", "phases": self.phases, **self.summary()}
        self._fh.write(json.dumps(header) + "\n")
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- aggregations --------------------------------------------------
    def link_utilisation_totals(self) -> dict[tuple[Any, Any], int]:
        """Per-link totals over all sampled cycles.

        Equals ``DeliveryStats.link_traffic`` of the recorded deliveries
        (summed, when the recorder spanned several) — the identity the
        acceptance criteria gate on.  Maintained incrementally, so it works
        in streaming mode too.
        """
        return dict(self._link_totals)

    def _require_in_memory(self, what: str):
        if self.streaming:
            raise RuntimeError(
                f"{what} needs the in-memory event list, but this recorder "
                f"streams to {self.path}; load the file with "
                "repro.analysis.trace_report.load_trace instead"
            )

    def message_events(self, msg_id: int) -> list[TraceEvent]:
        """The lifecycle chain of one message, in emission order."""
        self._require_in_memory("message_events")
        return [e for e in self.events if e.msg_id == msg_id]

    def delivery_cycles(self) -> dict[int, int]:
        """``msg_id -> cycle`` reconstructed from the ``delivered`` events."""
        self._require_in_memory("delivery_cycles")
        return {e.msg_id: e.cycle for e in self.events if e.kind == "delivered"}

    @property
    def in_flight_peak(self) -> int:
        return self._peak_in_flight

    @property
    def max_queue(self) -> int:
        return self._peak_queue

    def summary(self) -> dict:
        """Headline numbers for the text renderer and the CLI."""
        totals = self._link_totals
        busiest = max(totals.items(), key=lambda kv: kv[1], default=(None, 0))
        active = self._active_cycles
        out = {
            "events": self._n_events,
            "active_cycles": active,
            "n_phases": len(self.phases),
            "messages_injected": self.n_injected,
            "messages_delivered": self.n_delivered,
            "links_used": len(totals),
            "busiest_link": None if busiest[0] is None else f"{busiest[0][0]!r}->{busiest[0][1]!r}",
            "busiest_link_traffic": busiest[1],
            "peak_in_flight": self._peak_in_flight,
            "peak_queue": self._peak_queue,
            "mean_moves_per_cycle": round(self._moved / active, 3) if active else 0.0,
        }
        if self.n_faults or self.n_dropped or self.n_reroutes:
            out["fault_events"] = self.n_faults
            out["reroutes"] = self.n_reroutes
            out["messages_dropped"] = self.n_dropped
        if self.n_corrupted or self.n_retransmits or self.n_quarantines:
            out["corrupt_arrivals"] = self.n_corrupted
            out["retransmits"] = self.n_retransmits
            out["quarantine_events"] = self.n_quarantines
        if self.n_repairs or self.n_migrated:
            out["repairs"] = self.n_repairs
            out["messages_migrated"] = self.n_migrated
        if self.n_batch_fallbacks:
            out["batch_fallbacks"] = self.n_batch_fallbacks
        return out

    # -- export --------------------------------------------------------
    def to_jsonl(self, path_or_file) -> None:
        """Write the full trace as JSONL: a header line, then every
        per-cycle sample and event in capture order.

        In-memory mode only — a streaming recorder already wrote its file
        incrementally (call :meth:`close` and read that instead).
        """
        self._require_in_memory("to_jsonl")
        close = False
        if hasattr(path_or_file, "write"):
            fh: TextIO = path_or_file
        else:
            fh = open(path_or_file, "w", encoding="utf-8")
            close = True
        try:
            header = {"type": "header", "phases": self.phases, **self.summary()}
            fh.write(json.dumps(header) + "\n")
            for sample in self.cycles:
                fh.write(json.dumps(sample.as_dict()) + "\n")
            for event in self.events:
                fh.write(json.dumps(event.as_dict()) + "\n")
        finally:
            if close:
                fh.close()
