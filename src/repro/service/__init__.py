"""Simulation-as-a-service: scenarios, a worker fleet, and a REST API.

This package turns the multi-tenant :class:`~repro.runtime.Runtime` into a
service that absorbs heavy concurrent traffic (ROADMAP item 2):

* :mod:`repro.service.scenario` — the versioned **scenario JSON** clients
  submit: one host network, a set of :class:`~repro.runtime.JobSpec`
  tenants, an optional :class:`~repro.simulate.FaultSchedule`, and every
  router/policy knob.  A scenario is the unit of placement and
  execution; ``run_scenario`` executes one directly in-process (the
  reference the service's results are gated bit-identical against).
* :mod:`repro.service.store` — a filesystem-backed job store and queue.
  Every coordination primitive is an atomic rename, so worker processes
  need no locks and a SIGKILL at any instant never corrupts state.
* :mod:`repro.service.worker` — the worker-process main loop: claim a job
  from the shard queue, build (or *restore*) the scenario's ``Runtime``,
  step it with periodic atomic checkpoints, publish the result.
* :mod:`repro.service.fleet` — the manager: spawns one worker process per
  shard, places submissions by occupancy/priority, detects dead workers
  and requeues their jobs (which then resume from the last checkpoint —
  crash recovery and shard migration are the same mechanism).
* :mod:`repro.service.api` / :mod:`~repro.service.client` — a stdlib
  ``ThreadingHTTPServer`` REST front end (submit / poll / stream trace /
  fetch artifacts) and the matching ``urllib`` client.
* :mod:`repro.service.loadgen` — replays hundreds of concurrent
  submissions against a fleet or API to benchmark service throughput
  (``benchmarks/bench_service.py``).

Everything is standard library + the package's own machinery: no web
framework, no broker daemon, no pickle on the wire — scenario JSON in,
result JSON out.
"""

from .client import ServiceClient
from .fleet import Fleet
from .loadgen import LoadReport, run_load, scenario_variants
from .scenario import SCENARIO_VERSION, Scenario, drive_runtime, run_scenario
from .store import JobRecord, Store

__all__ = [
    "SCENARIO_VERSION",
    "Scenario",
    "run_scenario",
    "drive_runtime",
    "Store",
    "JobRecord",
    "Fleet",
    "ServiceClient",
    "run_load",
    "scenario_variants",
    "LoadReport",
]
