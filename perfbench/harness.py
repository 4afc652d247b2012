"""Shared machinery for the perfbench workloads.

Everything here is benchmark-side: spans that the benchmark records around
its own calls into ``repro``, a pass/fail ledger, percentiles, peak memory,
and seed derivation.  The library is only ever reached through its public
API.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.analysis import to_speedscope
from repro.obs import SpanRecord, reset_spans, spans

#: ``repro.obs`` keeps the last 8192 spans in a ring; a call that leaves
#: this many behind may have lost its oldest ones
OBS_RING = 8192


def derive_seed(seed: int, *tags) -> int:
    """A stable 31-bit seed for one input, derived from the run seed."""
    return random.Random("/".join(map(str, (seed, *tags)))).randrange(2**31)


def quantiles(values: list[float]) -> dict[str, float]:
    """Median and 90th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return {"p50": v, "p90": v}
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {"p50": statistics.median(values), "p90": deciles[8]}


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size of one process in MiB (``VmHWM``)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":  # no procfs: ru_maxrss is KiB on Linux
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _random_tree(n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


_CAL_TREE = _random_tree(5_000, 1)


def _calibration_work() -> int:
    """Breadth-first search of a fixed random tree, independent of
    ``repro``: pointer-chasing interpreter work like the library's.  It
    allocates almost nothing, so no garbage collection of the workload's
    heap lands in a sample, and it takes about a millisecond, less than one
    scheduler time slice, so a sample on a CPU that a busy process shares
    is not split around that process's slice."""
    dist = [-1] * len(_CAL_TREE)
    dist[0] = 0
    queue = [0]
    for u in queue:
        for v in _CAL_TREE[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return len(queue)


class Calibration:
    """Tracks how fast this machine runs right now.

    Shared 2-vCPU containers change speed by a third within a minute, so
    timings are scaled to a reference machine: a fixed, library-independent
    loop is timed through the window, and a timing is multiplied by the
    loop's time on the reference machine over its median time around the
    moment the timing was taken.  A change to ``repro`` cannot move it.
    """

    #: median seconds of one ``_calibration_work`` on the reference machine
    #: (2-vCPU x86-64 container, CPython 3.11)
    REFERENCE_S = 0.001
    #: samples within this many seconds of a timing count as "around" it
    NEAR_S = 1.0
    #: how the samples around a timing are summarised
    statistic = staticmethod(statistics.median)

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        #: ``(taken at, seconds)`` per sample, on the ``perf_counter`` clock
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        _calibration_work()
        self._last = time.perf_counter()
        self.samples.append((self._last, self._last - t0))

    def maybe_sample(self) -> None:
        """Sample if ``every_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def slowdown(self, t0: float | None = None, t1: float | None = None) -> float:
        """How much slower than the reference machine this one ran around
        ``[t0, t1]`` (over the whole run when not given)."""
        near = [d for t, d in self.samples
                if t0 is None or t0 - self.NEAR_S <= t <= t1 + self.NEAR_S]
        return self.statistic(near or [d for _, d in self.samples]) / self.REFERENCE_S


class Unscaled(Calibration):
    """Timings as measured on this machine (diagnostics only)."""

    def slowdown(self, t0: float | None = None, t1: float | None = None) -> float:
        return 1.0


class Ledger:
    """Counts operations attempted and failed; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok

    def check(self, ok: bool, reason: str) -> bool:
        """A correctness check that is not an operation of its own: it
        only adds a failure (and an attempt) when it does not hold."""
        if not ok:
            self.record(False, reason)
        return ok


class Tracer:
    """Spans recorded by the benchmark around its calls into each layer.

    A span has a name, start, end, parent id and (for service jobs) a job
    id.  :meth:`call` also folds in the spans the library emitted during
    the call (``repro.obs``), reparented under the benchmark's span, and
    drains the library's ring so the next call starts empty.
    A disabled tracer records nothing and costs one branch per span.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[dict] = []
        self.ring_filled = 0
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, job: str | None = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            rec = {"id": sid, "parent": parent, "name": name, "start": start,
                   "end": end, "thread": threading.current_thread().name}
            if job is not None:
                rec["job"] = job
            with self._lock:
                self.records.append(rec)

    @contextmanager
    def call(self, name: str, job: str | None = None):
        """A span around one library call, with the library's spans folded in."""
        if not self.enabled:
            yield None
            return
        reset_spans()
        with self.span(name, job) as sid:
            yield sid
        self._fold_library_spans(sid)

    def _fold_library_spans(self, parent: int) -> None:
        emitted = spans()
        reset_spans()
        if len(emitted) >= OBS_RING:
            self.ring_filled += 1
            return
        # nest by interval containment: parents start no later and end no
        # earlier than their children
        emitted.sort(key=lambda r: (r.start_s, -r.duration_s))
        open_: list[tuple[float, int]] = []
        thread = threading.current_thread().name
        for r in emitted:
            end = r.start_s + r.duration_s
            while open_ and open_[-1][0] < end:
                open_.pop()
            with self._lock:
                sid = next(self._ids)
                self.records.append({
                    "id": sid, "parent": open_[-1][1] if open_ else parent,
                    "name": r.name, "start": r.start_s, "end": end,
                    "thread": thread,
                })
            open_.append((end, sid))

    # -- folding ---------------------------------------------------------
    def by_name(self) -> dict[str, dict[str, float]]:
        """``name -> {count, total_s, self_s}``; self = span minus children."""
        child_time: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = child_time.get(r["parent"], 0.0) + (
                    r["end"] - r["start"]
                )
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            agg = out.setdefault(r["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            dur = r["end"] - r["start"]
            agg["count"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time.get(r["id"], 0.0)
        return out

    def write_speedscope(self, path: Path) -> list[Path]:
        """One speedscope profile per thread (spans nest only within one)."""
        depth: dict[int, int] = {}
        for r in sorted(self.records, key=lambda r: r["start"]):
            depth[r["id"]] = 0 if r["parent"] is None else depth.get(r["parent"], 0) + 1
        threads: dict[str, list[SpanRecord]] = {}
        for r in self.records:
            threads.setdefault(r["thread"], []).append(SpanRecord(
                r["name"], r["end"] - r["start"], depth[r["id"]],
                {"job": r["job"]} if "job" in r else {}, start_s=r["start"],
            ))
        written = []
        path.parent.mkdir(parents=True, exist_ok=True)
        for thread, recs in sorted(threads.items()):
            out = path.with_name(f"{path.stem}.{thread}{path.suffix}")
            out.write_text(json.dumps(to_speedscope(recs, name=f"{path.stem} {thread}")))
            written.append(out)
        return written


class Stopwatch:
    """Sums the time spent in timed regions, per key."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: ``key -> (first start, last stop)`` of the timed regions
        self.extent: dict[str, tuple[float, float]] = {}

    @contextmanager
    def time(self, key: str, count: int = 0):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.add(key, t1 - t0, count)
            self.extent[key] = (self.extent.get(key, (t0,))[0], t1)

    def add(self, key: str, seconds: float, count: int = 0) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.counts[key] = self.counts.get(key, 0) + count
