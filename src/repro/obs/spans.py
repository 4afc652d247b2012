"""Span-based wall-clock timing and named counters.

A *span* is one timed region of the verification / simulation stack:

    from repro.obs import span

    with span("verify.theorem1", r=4):
        ...

Spans nest (the collector tracks depth) and land in a bounded module-level
log so long-running processes cannot leak memory; :func:`span_summary`
folds the log into per-name count/total/max statistics for the CLI's
``--metrics`` view.

*Counters* are even lighter: :func:`counter_inc` bumps a named integer
(the distance oracle uses ``oracle.row_cache.hit`` / ``.miss``).  Both
facilities are process-global on purpose: the interesting consumers
(CLI ``--metrics``, the benchmark harness) want one place to read, and
the write path must stay cheap enough to sit inside hot loops.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps

__all__ = [
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

#: bounded: old spans fall off the far end instead of growing forever
_MAX_SPANS = 8192

_spans: deque = deque(maxlen=_MAX_SPANS)
_depth: int = 0

_counters: Counter = Counter()


@dataclass(frozen=True)
class SpanRecord:
    """One finished timed region.

    ``start_s`` is the raw :func:`time.perf_counter` value at entry — an
    arbitrary epoch, meaningful only relative to other spans of the same
    process.  Exporters (``to_speedscope``) normalise it; consumers that
    only aggregate durations can ignore it.
    """

    name: str
    duration_s: float
    depth: int = 0
    meta: dict = field(default_factory=dict)
    start_s: float = 0.0


@contextmanager
def span(name: str, **meta):
    """Time a region under ``name``; extra keywords become span metadata."""
    global _depth
    depth = _depth
    _depth = depth + 1
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _depth = depth
        _spans.append(
            SpanRecord(name, time.perf_counter() - t0, depth, meta, start_s=t0)
        )


def timed(name: str):
    """Decorator form of :func:`span` for whole functions."""

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def spans() -> list[SpanRecord]:
    """The collected spans, oldest first (bounded at ``_MAX_SPANS``)."""
    return list(_spans)


def reset_spans() -> None:
    _spans.clear()


def span_summary() -> dict[str, dict]:
    """``name -> {count, total_s, max_s}`` over the collected spans."""
    out: dict[str, dict] = {}
    for rec in _spans:
        agg = out.setdefault(rec.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += rec.duration_s
        agg["max_s"] = max(agg["max_s"], rec.duration_s)
    return out


def counter_inc(name: str, delta: int = 1) -> None:
    """Bump the named counter (cheap enough for hot paths)."""
    _counters[name] += delta


def counters() -> dict[str, int]:
    """Snapshot of every named counter."""
    return dict(_counters)


def reset_counters() -> None:
    _counters.clear()
