"""Filesystem-backed job store and shard queues for the service fleet.

Layout under one root directory::

    root/
      jobs/<job_id>/scenario.json    submitted document (verbatim)
      jobs/<job_id>/meta.json        status, shard, priority, attempts, pid
      jobs/<job_id>/result.json      RuntimeResult + exit_code (terminal)
      jobs/<job_id>/checkpoint.json  Runtime checkpoint: a base + one delta per cut
      jobs/<job_id>/trace.jsonl      streamed JSONL trace (scenario.trace)
      queue/shard<k>/<marker>        empty marker files = the queue
      running/shard<k>/<marker>      marker moved here while claimed
      stop                           flag file: workers drain and exit

Coordination is *rename-only*: a worker claims a job by renaming its
queue marker into ``running/`` (atomic on POSIX — exactly one claimant
can win), completes it by deleting the marker, and the fleet requeues a
dead worker's job by renaming the marker back.  JSON documents are
written compact, to a tmp file that is then renamed into place (or, for
admissions, hard-linked), so a SIGKILL at any instant leaves either the
old file or the new file, never a torn one.  The one exception is the
delta line :meth:`~repro.runtime.Runtime.checkpoint_json` appends to
``checkpoint.json`` at each cut.  A torn delta is a strict prefix of a
JSON object, which never decodes, so
:meth:`~repro.runtime.Runtime.restore_json` resumes from the last complete
cut, and the writer replaces a file it did not leave whole with a fresh
base.  No locks, no daemons, no pickle.

Marker names sort the queue: ``p<999-priority>-s<seq>-<job_id>`` — higher
priority first, then submission order (FIFO within a priority class).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .._util import atomic_write_text, tmp_sibling

__all__ = ["Store", "JobRecord", "JOB_STATES", "DeadWorkerError"]

#: service-level job lifecycle (distinct from runtime job statuses):
#: ``queued`` -> ``running`` -> ``done`` | ``failed``; a job whose worker
#: died goes back to ``queued`` (with the checkpoint intact) until a
#: worker resumes it
JOB_STATES = ("queued", "running", "done", "failed")


def _compact(doc) -> str:
    """Every document the store writes is compact JSON, which keeps
    ``json.dumps`` on CPython's C encoder (any ``indent`` does not)."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _pid_alive(pid: int | None) -> bool:
    """Best-effort liveness probe for a worker pid (signal 0)."""
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class DeadWorkerError(RuntimeError):
    """A waited-on job is ``running`` but its claiming worker is dead.

    Raised by :meth:`Store.wait_terminal` instead of blocking for the
    full timeout: the job cannot finish until someone calls
    ``Fleet.recover()``, so waiting is pure latency.  Carries the
    structured facts a supervisor needs: which job, which shard owned
    it, the dead pid, and how stale the heartbeat is.
    """

    def __init__(self, job_id: str, shard: int, worker_pid: int | None,
                 stale_for: float):
        super().__init__(
            f"job {job_id!r} is running on shard {shard} but its worker "
            f"(pid {worker_pid}) is dead and its heartbeat is "
            f"{stale_for:.1f}s stale; recover() must requeue it"
        )
        self.job_id = job_id
        self.shard = shard
        self.worker_pid = worker_pid
        self.stale_for = stale_for


@dataclass
class JobRecord:
    """One job's metadata, as stored in ``meta.json``."""

    id: str
    name: str
    status: str
    shard: int
    priority: int = 1
    weight: int = 0
    seq: int = 0
    attempts: int = 0
    worker_pid: int | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "status": self.status,
            "shard": self.shard,
            "priority": self.priority,
            "weight": self.weight,
            "seq": self.seq,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(**d)


class Store:
    """Handle on one service root directory (safe to open from any
    process; every mutation is an atomic rename or replace)."""

    def __init__(self, root: str | Path, n_shards: int = 1):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.root = Path(root)
        self.n_shards = n_shards
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        for shard in range(n_shards):
            self.queue_dir(shard).mkdir(parents=True, exist_ok=True)
            self.running_dir(shard).mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def queue_dir(self, shard: int) -> Path:
        return self.root / "queue" / f"shard{shard:03d}"

    def running_dir(self, shard: int) -> Path:
        return self.root / "running" / f"shard{shard:03d}"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def scenario_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "scenario.json"

    def meta_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "meta.json"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def checkpoint_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "checkpoint.json"

    def trace_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "trace.jsonl"

    def admissions_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "admissions"

    def stop_path(self) -> Path:
        return self.root / "stop"

    # -- stop flag ------------------------------------------------------
    def request_stop(self) -> None:
        self.stop_path().write_text("stop\n")

    def clear_stop(self) -> None:
        self.stop_path().unlink(missing_ok=True)

    def stopping(self) -> bool:
        return self.stop_path().exists()

    # -- submission -----------------------------------------------------
    @staticmethod
    def _marker(priority: int, seq: int, job_id: str) -> str:
        # lexicographic order == scheduling order: higher priority first
        # (999 - p inverts), then submission sequence
        return f"p{999 - min(priority, 999):03d}-s{seq:08d}-{job_id}"

    @staticmethod
    def marker_job_id(marker: str) -> str:
        return marker.split("-", 2)[2]

    def enqueue(self, job_id: str, scenario_doc: dict, record: JobRecord) -> None:
        """Persist a new job and make it claimable on its shard's queue.

        The meta/scenario files land *before* the queue marker: a worker
        that sees the marker can rely on the documents being complete.
        """
        jd = self.job_dir(job_id)
        jd.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.scenario_path(job_id), _compact(scenario_doc))
        self.write_meta(record)
        marker = self._marker(record.priority, record.seq, job_id)
        (self.queue_dir(record.shard) / marker).write_text("")

    # -- worker claim / complete ---------------------------------------
    def claim(self, shard: int) -> str | None:
        """Atomically claim the highest-priority queued job on ``shard``.

        Returns the job id, or ``None`` when the queue is empty.  Claiming
        races (two workers, or a worker vs. a requeue) are settled by the
        filesystem: ``os.rename`` succeeds for exactly one caller.
        """
        qdir = self.queue_dir(shard)
        rdir = self.running_dir(shard)
        for marker in sorted(os.listdir(qdir)):
            try:
                os.rename(qdir / marker, rdir / marker)
            except FileNotFoundError:
                continue  # lost the race for this marker; try the next
            job_id = self.marker_job_id(marker)
            rec = self.read_meta(job_id)
            rec.status = "running"
            rec.worker_pid = os.getpid()
            rec.attempts += 1
            self.write_meta(rec)
            return job_id
        return None

    def _find_running_marker(self, shard: int, job_id: str) -> Path | None:
        for marker in os.listdir(self.running_dir(shard)):
            if self.marker_job_id(marker) == job_id:
                return self.running_dir(shard) / marker
        return None

    def complete(self, job_id: str, shard: int, result_doc: dict,
                 *, status: str = "done", error: str | None = None) -> None:
        """Publish a terminal result and release the running marker.

        Order matters for crash-safety: result first, then meta, then the
        marker — a crash between steps leaves the job ``running`` with a
        result present, which recovery resolves in the job's favour
        (see :meth:`requeue_running`).
        """
        atomic_write_text(self.result_path(job_id), _compact(result_doc))
        rec = self.read_meta(job_id)
        rec.status = status
        rec.error = error
        rec.worker_pid = None
        self.write_meta(rec)
        marker = self._find_running_marker(shard, job_id)
        if marker is not None:
            marker.unlink(missing_ok=True)

    def heartbeat(self, job_id: str) -> None:
        """Touch the job dir's mtime so a supervisor can see liveness."""
        os.utime(self.job_dir(job_id))

    # -- recovery -------------------------------------------------------
    def running_jobs(self, shard: int) -> list[str]:
        return [
            self.marker_job_id(m) for m in sorted(os.listdir(self.running_dir(shard)))
        ]

    def requeue_running(self, shard: int, job_id: str, new_shard: int) -> bool:
        """Move a (dead worker's) running job back onto a queue.

        ``new_shard`` may differ from ``shard`` — that is shard migration:
        the job's checkpoint travels with it (it lives under ``jobs/``),
        so whichever worker claims it resumes bit-identically.  If a
        terminal result was already published (the worker died *after*
        :meth:`complete` wrote it), the job is finalised instead of
        re-run.  Returns True when the job went back on a queue.
        """
        marker = self._find_running_marker(shard, job_id)
        if marker is None:
            return False
        rec = self.read_meta(job_id)
        if self.result_path(job_id).exists():
            # the worker finished the work and died in the gap before
            # releasing the marker: keep the published result
            if rec.status == "running":
                rec.status = "done"
                rec.worker_pid = None
                self.write_meta(rec)
            marker.unlink(missing_ok=True)
            return False
        rec.status = "queued"
        rec.worker_pid = None
        rec.shard = new_shard
        self.write_meta(rec)
        new_marker = self._marker(rec.priority, rec.seq, job_id)
        try:
            os.rename(marker, self.queue_dir(new_shard) / new_marker)
        except FileNotFoundError:
            return False  # someone else recovered it first
        return True

    # -- reads ----------------------------------------------------------
    def read_meta(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(json.loads(self.meta_path(job_id).read_text()))

    def write_meta(self, record: JobRecord) -> None:
        atomic_write_text(self.meta_path(record.id), _compact(record.as_dict()))

    def read_scenario_doc(self, job_id: str) -> dict:
        return json.loads(self.scenario_path(job_id).read_text())

    def read_result(self, job_id: str) -> dict | None:
        path = self.result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- live admissions ------------------------------------------------
    def write_admission(self, job_id: str, cycle: int, spec_doc: dict) -> str:
        """Persist one mid-run arrival: admit ``spec_doc`` at ``cycle``.

        Files are numbered so :meth:`read_admissions` replays them in
        submission order.  The document is written to a tmp file of this
        thread's own, then hard-linked to the first free name:
        ``os.link`` fails with ``FileExistsError`` rather than replace, so
        concurrent admissions into one job each claim a distinct number,
        and a worker polling the directory never sees a half-written
        arrival.
        """
        d = self.admissions_dir(job_id)
        d.mkdir(parents=True, exist_ok=True)
        tmp = tmp_sibling(d / "admit")
        try:
            tmp.write_text(_compact({"cycle": int(cycle), "spec": spec_doc}))
            seq = len(list(d.glob("admit-*.json")))
            while True:
                name = f"admit-{seq:04d}.json"
                try:
                    os.link(tmp, d / name)
                    return name
                except FileExistsError:
                    seq += 1
        finally:
            tmp.unlink(missing_ok=True)

    def read_admissions(self, job_id: str) -> list[tuple[int, dict]]:
        """Every persisted arrival for ``job_id``, in submission order."""
        d = self.admissions_dir(job_id)
        if not d.is_dir():
            return []
        out = []
        for path in sorted(d.glob("admit-*.json")):
            doc = json.loads(path.read_text())
            out.append((int(doc["cycle"]), doc["spec"]))
        return out

    def list_jobs(self) -> list[str]:
        return sorted(p.name for p in self.jobs_dir.iterdir() if p.is_dir())

    def outstanding_weight(self, shard: int) -> int:
        """Combined declared weight of this shard's queued + running jobs —
        the occupancy signal placement minimises."""
        total = 0
        for d in (self.queue_dir(shard), self.running_dir(shard)):
            for marker in os.listdir(d):
                try:
                    total += self.read_meta(self.marker_job_id(marker)).weight
                except (OSError, ValueError, KeyError):
                    continue  # job mid-removal; count it as gone
        return total

    def wait_terminal(self, job_ids, *, timeout: float = 60.0,
                      poll: float = 0.05,
                      stale_after: float | None = 2.0) -> dict[str, str]:
        """Block until every job reaches ``done``/``failed`` (or timeout).

        Returns ``{job_id: status}``; raises :class:`TimeoutError` with
        the stragglers' states when the deadline passes.

        Fail-fast: a ``running`` job whose claiming worker pid is dead
        *and* whose heartbeat (the job dir's mtime — touched by
        :meth:`heartbeat` at every checkpoint interval and by each fresh
        checkpoint base, but not by an appended checkpoint delta) has
        been quiet for ``stale_after`` seconds can only finish after a
        ``recover()``, so waiting out the timeout is pure latency — it
        raises :class:`DeadWorkerError` naming the dead shard instead.
        Requeued jobs (status ``queued``, pid ``None``) never trip this.
        Pass ``stale_after=None`` to wait out the timeout regardless.
        """
        deadline = time.monotonic() + timeout
        ids = list(job_ids)
        states: dict[str, str] = {}
        while True:
            records = {j: self.read_meta(j) for j in ids}
            states = {j: r.status for j, r in records.items()}
            if all(s in ("done", "failed") for s in states.values()):
                return states
            if stale_after is not None:
                for j, rec in records.items():
                    if rec.status != "running" or _pid_alive(rec.worker_pid):
                        continue
                    age = time.time() - self.job_dir(j).stat().st_mtime
                    if age >= stale_after:
                        raise DeadWorkerError(j, rec.shard, rec.worker_pid, age)
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"jobs not terminal after {timeout}s: "
                    f"{ {j: s for j, s in states.items() if s not in ('done', 'failed')} }"
                )
            time.sleep(poll)
