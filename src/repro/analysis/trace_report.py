"""Renderers for :mod:`repro.obs` traces: JSONL loading, text and CSV.

A :class:`~repro.obs.TraceRecorder` writes one JSONL file per run — its
events and per-cycle samples in capture order, then the summary header
as the last line.  This module turns recorders (or their files) back
into something a person reads:

* :func:`load_trace` — parse a JSONL trace file into header / cycles /
  events dictionaries;
* :func:`trace_summary_text` — headline numbers plus a per-phase table
  (cycles, messages moved, peak queue / in-flight);
* :func:`per_cycle_csv` — the per-cycle time series as CSV, one row per
  active cycle (the format EXPERIMENTS.md plots come from);
* :func:`metrics_report` — the CLI's ``--metrics`` view: trace summary +
  wall-clock span summary + named counters in one string.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from ..obs import TraceRecorder, counters, span_summary, spans
from .tables import markdown_table

__all__ = [
    "load_trace",
    "trace_summary_text",
    "per_cycle_csv",
    "metrics_report",
    "to_speedscope",
]


def load_trace(path: str | Path) -> dict:
    """Parse a JSONL trace file into ``{"header", "cycles", "events"}``.

    Unknown line types are preserved under ``"other"`` so future recorder
    extensions stay loadable.
    """
    header: dict = {}
    cycles: list[dict] = []
    events: list[dict] = []
    other: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("type")
            if kind == "header":
                header = rec
            elif kind == "cycle":
                cycles.append(rec)
            elif kind == "event":
                events.append(rec)
            else:
                other.append(rec)
    return {"header": header, "cycles": cycles, "events": events, "other": other}


def _phase_rows(recorder: TraceRecorder) -> list[list[object]]:
    """Aggregate the recorder's samples into one row per phase.

    A recorder driven without any ``begin_phase`` call (direct ``deliver``
    use) has every sample at the implicit phase 0 and an empty ``phases``
    list; that phase renders as ``(unphased)`` rather than mislabelling or
    indexing past the label list.
    """
    labels = recorder.phases or ["(unphased)"]
    agg: dict[int, dict] = {}
    for s in recorder.cycles:
        a = agg.setdefault(s.phase, {"cycles": 0, "moved": 0, "queue": 0, "inflight": 0})
        a["cycles"] += 1
        a["moved"] += s.messages_moved
        a["queue"] = max(a["queue"], s.max_queue)
        a["inflight"] = max(a["inflight"], s.in_flight)
    rows = []
    for phase, a in sorted(agg.items()):
        label = labels[phase] if phase < len(labels) else f"phase {phase}"
        rows.append([label, a["cycles"], a["moved"], a["queue"], a["inflight"]])
    return rows


def trace_summary_text(recorder: TraceRecorder) -> str:
    """Human-readable summary: headline numbers + per-phase table."""
    s = recorder.summary()
    head = (
        f"trace: {s['events']} events over {s['active_cycles']} active cycles, "
        f"{s['messages_delivered']}/{s['messages_injected']} messages delivered\n"
        f"peak in-flight {s['peak_in_flight']}, peak queue {s['peak_queue']}, "
        f"busiest link {s['busiest_link']} ({s['busiest_link_traffic']} msgs), "
        f"mean moves/cycle {s['mean_moves_per_cycle']}"
    )
    if "fault_events" in s:
        head += (
            f"\nfaults: {s['fault_events']} events applied, "
            f"{s['reroutes']} reroutes, {s['messages_dropped']} messages dropped"
        )
    rows = _phase_rows(recorder)
    if not rows:
        return head
    table = markdown_table(
        ["phase", "active cycles", "messages moved", "peak queue", "peak in-flight"], rows
    )
    return head + "\n" + table


def per_cycle_csv(recorder: TraceRecorder) -> str:
    """The per-cycle series as CSV: phase, cycle, moved, queues, in-flight."""
    out = io.StringIO()
    out.write("phase,cycle,messages_moved,active_links,queued_messages,max_queue,in_flight\n")
    for s in recorder.cycles:
        out.write(
            f"{s.phase},{s.cycle},{s.messages_moved},{len(s.link_utilisation)},"
            f"{sum(s.queue_occupancy.values())},{s.max_queue},{s.in_flight}\n"
        )
    return out.getvalue()


def to_speedscope(records=None, *, name: str = "repro spans") -> dict:
    """Fold span records into a speedscope *evented* profile (a dict).

    ``json.dump`` the result and drop it on https://speedscope.app (or
    ``speedscope file.json``) for an interactive flamegraph of the
    collected :func:`~repro.obs.span` regions — e.g. the per-round
    construction spans ``embed.round0`` / ``embed.adjust`` /
    ``embed.split`` / ``embed.finalize`` emitted by
    :func:`~repro.core.xtree_embed.embed_binary_tree`.

    ``records`` defaults to the process-global span log.  Span start
    times are normalised so the profile starts at 0; open/close event
    ordering is reconstructed from each span's start, end and nesting
    depth, so sibling spans at equal timestamps cannot interleave
    improperly.
    """
    recs = spans() if records is None else list(records)
    frames: list[dict] = []
    frame_index: dict[str, int] = {}
    events: list[tuple[float, int, int, int]] = []
    t0 = min((r.start_s for r in recs), default=0.0)
    end = 0.0
    for r in recs:
        idx = frame_index.setdefault(r.name, len(frame_index))
        if idx == len(frames):
            frames.append({"name": r.name})
        start = r.start_s - t0
        stop = start + r.duration_s
        end = max(end, stop)
        # sort keys: closes before opens at equal times; deeper spans
        # close first and open last, preserving proper nesting
        events.append((start, 1, r.depth, idx))
        events.append((stop, 0, -r.depth, idx))
    events.sort()
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": end,
                "events": [
                    {"type": "O" if kind else "C", "frame": idx, "at": t}
                    for t, kind, _depth, idx in events
                ],
            }
        ],
    }


def metrics_report(recorder: TraceRecorder | None = None) -> str:
    """The ``--metrics`` view: trace + spans + counters, one string."""
    parts: list[str] = []
    if recorder is not None:
        parts.append(trace_summary_text(recorder))
    summary = span_summary()
    if summary:
        rows = [
            [name, agg["count"], f"{agg['total_s'] * 1e3:.2f}", f"{agg['max_s'] * 1e3:.2f}"]
            for name, agg in sorted(summary.items())
        ]
        parts.append(markdown_table(["span", "count", "total ms", "max ms"], rows))
    counts = counters()
    if counts:
        parts.append(
            markdown_table(["counter", "value"], [[k, v] for k, v in sorted(counts.items())])
        )
    return "\n\n".join(parts) if parts else "(no metrics collected)"
