"""Trace recorders for the synchronous network engine.

The engine (:meth:`repro.simulate.engine.SynchronousNetwork.deliver_scheduled`)
and the runtime drive a :class:`Recorder` through three hooks:

* :meth:`Recorder.begin_phase` — a new logical phase (one BSP superstep);
* :meth:`Recorder.on_event` — one lifecycle event, the fields of a
  :class:`TraceEvent` (its ``kind`` list says what each event means);
* :meth:`Recorder.on_cycle_end` — the end of an active cycle: queue
  occupancy per node, messages per directed link, and messages in
  flight.  The reference loop builds these dicts once per cycle and hands
  the same ones to an adaptive router.

``None`` is the only way to say "not observing": an unobserved delivery
runs on the vector kernel, and the reference loop pays one ``is not
None`` test per event site and nothing else.

:class:`TraceRecorder` keeps its records in capture order and writes one
layout: one JSON line per event or sample, in capture order, then the
summary header as the *last* line.  It has two capture modes:

* **in-memory** (default): the records stay in memory, readable through
  ``events`` / ``cycles``, and :meth:`TraceRecorder.to_jsonl` writes the
  trace afterwards;
* **streaming** (``TraceRecorder(path=..., flush_every=N)``): each record
  is appended to the JSONL file as it happens, buffered ``flush_every``
  lines at a time, so memory stays bounded no matter how many messages
  the run traces; :meth:`TraceRecorder.close` writes the header.

Both modes write the same bytes for the same run.  Aggregates
(:meth:`~TraceRecorder.summary`, :meth:`~TraceRecorder.link_utilisation_totals`,
``tally``, peaks) are kept incrementally and work in both modes; only the
raw-record accessors (:meth:`~TraceRecorder.message_events`,
:meth:`~TraceRecorder.delivery_cycles`, :meth:`~TraceRecorder.to_jsonl`)
need memory and raise in streaming mode.

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
    "TraceRecorder",
    "TraceEvent",
    "CycleSample",
]


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event of one message (or of the network itself).

    ``kind`` is one of:

    * ``inject`` (the message entered its source's output queue), ``hop``
      (it crossed the directed link ``node -> link_dst``), ``queued``
      (link capacity or a partition held it a cycle), ``delivered`` (it
      reached its destination ``node``);
    * fault-tolerant deliveries: ``fault`` (a schedule event applied at
      the cycle boundary; ``detail`` is its action, ``node``/``link_dst``
      the link or node), ``reroute`` (a queued message's planned next hop
      died under it), ``dropped`` (it will never be delivered; ``detail``
      is ``ttl``, ``partitioned`` or ``integrity``);
    * byzantine deliveries: ``corrupt`` (the end-to-end checksum caught a
      mismatch at the destination), ``retransmit`` (the integrity
      protocol re-sent it from source; ``detail`` is ``attempt=N``),
      ``quarantine`` (the link ``node -- link_dst`` left the route set,
      ``quarantined``, or a probe readmitted it, ``probe_heal``);
    * runtime-level, with ``node`` the job name: ``repair`` (the job's
      embedding was remapped online; ``detail`` is ``moved=N`` guest
      nodes), ``migrate`` (stranded messages re-sent to the repaired
      images; ``detail`` is ``messages=N``), and ``batch_fallback`` (a
      batch round degraded to per-job stepping; no job, ``detail`` is
      the ``";"``-joined reasons and ``n_active=N``).

    Network- and runtime-level events use ``msg_id = -1``.  ``phase``
    indexes into the recorder's ``phases`` list (supersteps, when driven
    through ``simulate_on_host``).
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
    """The hook protocol the engine and the runtime drive (no-ops here)."""

    def begin_phase(self, label: str) -> None:
        """A new logical phase starts (e.g. one BSP superstep)."""

    def on_event(
        self, cycle: int, kind: str, msg_id: int, node=None, link_dst=None,
        detail: str | None = None,
    ) -> None:
        """One lifecycle event: a :class:`TraceEvent` but for its phase."""

    def on_cycle_end(
        self, cycle: int, occupancy: dict, link_use: dict, in_flight: int
    ) -> None:
        """One active cycle finished.

        ``occupancy`` maps each node with a non-empty output queue to its
        length, ``link_use`` each directed link to the messages that
        crossed it this cycle, and ``in_flight`` counts the messages
        injected but not yet delivered.  The dicts are fresh each cycle
        and shared with the router: read them, do not mutate them.
        """


#: summary keys that appear together when any of their event kinds was
#: recorded, in header order
_OPTIONAL_SUMMARY = (
    (("fault_events", "fault"), ("reroutes", "reroute"), ("messages_dropped", "dropped")),
    (("corrupt_arrivals", "corrupt"), ("retransmits", "retransmit"),
     ("quarantine_events", "quarantine")),
    (("repairs", "repair"), ("messages_migrated", "migrate")),
    (("batch_fallbacks", "batch_fallback"),),
)


class TraceRecorder(Recorder):
    """Capture of events and per-cycle samples, in memory or streamed.

    With no arguments the records of every delivery driven with this
    recorder accumulate in memory, in capture order; :meth:`begin_phase`
    partitions them (BSP supersteps restart their cycle counters, so
    ``(phase, cycle)`` is the unique key).

    With ``path=...`` the recorder *streams*: each record appends to the
    JSONL file (buffered ``flush_every`` lines at a time), nothing stays
    in memory, and :meth:`close` flushes the tail and writes the summary
    header as the file's last line.  Use it as a context manager for the
    close.
    """

    def __init__(self, path: str | Path | None = None, flush_every: int = 1000) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.phases: list[str] = []
        #: events recorded per kind; a ``migrate`` event counts the
        #: messages it moves
        self.tally: Counter = Counter()
        self._records: list[TraceEvent | CycleSample] = []
        self._phase = 0
        # incremental aggregates: identical in both modes, so summaries
        # never need the records
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

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events in capture order (empty when streaming)."""
        return [r for r in self._records if type(r) is TraceEvent]

    @property
    def cycles(self) -> list[CycleSample]:
        """The per-cycle samples in capture order (empty when streaming)."""
        return [r for r in self._records if type(r) is CycleSample]

    # -- hooks ---------------------------------------------------------
    def begin_phase(self, label: str) -> None:
        # Traffic recorded before any begin_phase (direct ``deliver`` use,
        # not via ``simulate_on_host``) sits at the implicit phase 0; the
        # first explicit phase must not collide with it, so materialise an
        # "(unphased)" entry to keep those indices labelled correctly.
        if not self.phases and (self._n_events or self._active_cycles):
            self.phases.append("(unphased)")
        self.phases.append(label)
        self._phase = len(self.phases) - 1

    def on_event(
        self, cycle: int, kind: str, msg_id: int, node=None, link_dst=None,
        detail: str | None = None,
    ) -> None:
        self._n_events += 1
        if kind == "migrate":
            self.tally[kind] += int(detail.partition("=")[2])
        else:
            self.tally[kind] += 1
        event = TraceEvent(cycle, kind, msg_id, node, link_dst, self._phase, detail)
        if self._fh is None:
            self._records.append(event)
        else:
            self._write(event)

    def on_cycle_end(
        self, cycle: int, occupancy: dict, link_use: dict, in_flight: int
    ) -> None:
        sample = CycleSample(cycle, self._phase, occupancy, link_use, in_flight)
        self._active_cycles += 1
        self._moved += sample.messages_moved
        self._peak_in_flight = max(self._peak_in_flight, in_flight)
        self._peak_queue = max(self._peak_queue, sample.max_queue)
        self._link_totals.update(link_use)
        if self._fh is None:
            self._records.append(sample)
        else:
            self._write(sample)

    # -- streaming lifecycle -------------------------------------------
    def _write(self, record: TraceEvent | CycleSample) -> None:
        self._buf.append(json.dumps(record.as_dict()))
        if len(self._buf) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered records to the stream (no-op in-memory)."""
        if self._fh is not None and self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()

    def close(self) -> None:
        """Flush the stream and append the summary header line.

        Idempotent; only meaningful in streaming mode.
        """
        if self._fh is None:
            return
        self.flush()
        self._fh.write(self._header_line())
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
        acceptance criteria gate on.
        """
        return dict(self._link_totals)

    def _require_in_memory(self, what: str):
        if self.streaming:
            raise RuntimeError(
                f"{what} needs the in-memory records, but this recorder "
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

    def summary(self) -> dict:
        """Headline numbers for the text renderer, the CLI and the header."""
        totals = self._link_totals
        busiest = max(totals.items(), key=lambda kv: kv[1], default=(None, 0))
        active = self._active_cycles
        tally = self.tally
        out = {
            "events": self._n_events,
            "active_cycles": active,
            "n_phases": len(self.phases),
            "messages_injected": tally["inject"],
            "messages_delivered": tally["delivered"],
            "links_used": len(totals),
            "busiest_link": None if busiest[0] is None else f"{busiest[0][0]!r}->{busiest[0][1]!r}",
            "busiest_link_traffic": busiest[1],
            "peak_in_flight": self._peak_in_flight,
            "peak_queue": self._peak_queue,
            "mean_moves_per_cycle": round(self._moved / active, 3) if active else 0.0,
        }
        for group in _OPTIONAL_SUMMARY:
            if any(tally[kind] for _, kind in group):
                out.update((key, tally[kind]) for key, kind in group)
        return out

    def _header_line(self) -> str:
        return json.dumps({"type": "header", "phases": self.phases, **self.summary()}) + "\n"

    # -- export --------------------------------------------------------
    def to_jsonl(self, path_or_file) -> None:
        """Write the trace as JSONL, byte for byte what a streaming
        recorder of the same run writes: every event and per-cycle sample
        in capture order, then the summary header.

        In-memory mode only — a streaming recorder already wrote its file.
        """
        self._require_in_memory("to_jsonl")
        if not hasattr(path_or_file, "write"):
            with open(path_or_file, "w", encoding="utf-8") as fh:
                self.to_jsonl(fh)
            return
        path_or_file.writelines(json.dumps(r.as_dict()) + "\n" for r in self._records)
        path_or_file.write(self._header_line())
