"""Observability: trace recorders, timing spans, counters.

The paper's claims are observable quantities — dilation is per-message
latency on the host, congestion is queueing delay — and this package is
how the library *sees* them.  Three independent facilities:

* :class:`Recorder` / :class:`TraceRecorder` — per-cycle samples and
  per-message lifecycle events out of the network engine
  (``SynchronousNetwork.deliver_scheduled``) and the runtime, through
  three hooks; a delivery with no recorder (``None``) runs on the vector
  kernel.
* :func:`span` / :func:`span_summary` — wall-clock timing of verification,
  simulation and oracle stages.
* :func:`counter_inc` / :func:`counters` — named counters (e.g. the
  distance oracle's row-cache hits/misses).

Renderers for exported traces live in :mod:`repro.analysis.trace_report`;
the CLI surfaces everything via ``simulate --trace PATH --metrics``.
"""

from .recorder import CycleSample, Recorder, TraceEvent, TraceRecorder
from .spans import (
    SpanRecord,
    counter_inc,
    counters,
    reset_counters,
    reset_spans,
    span,
    span_summary,
    spans,
    timed,
)

__all__ = [
    "Recorder",
    "TraceRecorder",
    "TraceEvent",
    "CycleSample",
    "SpanRecord",
    "span",
    "timed",
    "spans",
    "reset_spans",
    "span_summary",
    "counter_inc",
    "counters",
    "reset_counters",
]
