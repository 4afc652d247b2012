"""Worker process: claim scenarios from one shard queue and run them.

Each worker owns at most one live :class:`~repro.runtime.Runtime` at a
time.  The loop is deliberately crash-oblivious — all durable state lives
in the :class:`~repro.service.store.Store`, so a worker may be SIGKILLed
at any instant and the fleet's recovery pass will requeue its job, whose
next runner resumes from the last atomic checkpoint:

1. claim the highest-priority queued job (atomic rename),
2. run it with :func:`~repro.service.scenario.run_scenario`, which
   *restores* the runtime from ``jobs/<id>/checkpoint.json`` if one
   exists (this is the crash-recovery / migration path), else builds it
   from the scenario document, and drives it to a terminal state with
   periodic atomic checkpoints,
3. publish ``result.json`` and release the running marker.

A scenario that ends *degraded* (incomplete jobs, dropped messages) is
still ``done`` — the runtime delivered its contract of a degraded result;
``exit_code`` 1 in the result document mirrors the ``runtime`` CLI.  Only
an exception (e.g. :class:`~repro.simulate.RepairError` when the
embedding slack is exhausted) marks the job ``failed``.
"""

from __future__ import annotations

import time
import traceback

from ..obs import TraceRecorder
from .scenario import Scenario, run_scenario
from .store import Store

__all__ = ["worker_main", "run_one_job"]


def run_one_job(store: Store, shard: int, job_id: str) -> None:
    """Execute one claimed job to a terminal record (never raises)."""
    try:
        scenario = Scenario.from_obj(store.read_scenario_doc(job_id))
        recorder = (
            TraceRecorder(path=store.trace_path(job_id)) if scenario.trace else None
        )
        try:
            res = run_scenario(
                scenario,
                recorder=recorder,
                checkpoint_path=store.checkpoint_path(job_id),
                heartbeat=lambda: store.heartbeat(job_id),
                admissions=store.read_admissions(job_id),
                admission_poll=lambda: store.read_admissions(job_id),
            )
        finally:
            if recorder is not None:
                recorder.close()
        store.complete(
            job_id,
            shard,
            {
                "result": res.as_dict(),
                "complete": res.complete,
                "exit_code": 0 if res.complete else 1,
            },
            status="done",
        )
    except Exception as exc:  # terminal failure: record it, keep serving
        store.complete(
            job_id,
            shard,
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "exit_code": 1,
            },
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )


def worker_main(
    root: str,
    shard: int,
    n_shards: int,
    *,
    poll: float = 0.02,
    max_jobs: int | None = None,
) -> int:
    """Serve ``shard`` until the store's stop flag appears.

    Returns the number of jobs executed (``max_jobs`` caps it — used by
    tests to run a worker inline without a process).
    """
    store = Store(root, n_shards)
    served = 0
    while not store.stopping():
        job_id = store.claim(shard)
        if job_id is None:
            time.sleep(poll)
            continue
        run_one_job(store, shard, job_id)
        served += 1
        if max_jobs is not None and served >= max_jobs:
            break
    return served
