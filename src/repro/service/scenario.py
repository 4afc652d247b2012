"""Versioned scenario documents: what a client submits to the service.

A *scenario* is one complete, declarative :class:`~repro.runtime.Runtime`
session: the host network, the tenant :class:`~repro.runtime.JobSpec`\\ s,
an optional :class:`~repro.simulate.FaultSchedule` played on the global
clock, and the engine/router/policy knobs.  It is the service's unit of
submission, placement, execution, and recovery.

The JSON schema (``version`` is required and checked — the wire format is
a compatibility promise, like checkpoints):

.. code-block:: json

    {
      "version": 1,
      "name": "hot-spot-small",
      "description": "optional free text",
      "priority": 1,
      "host": {"name": "xtree", "args": [3]},
      "policy": "fair",
      "router": "deterministic",
      "engine": "auto",
      "max_load": 16,
      "link_capacity": 1,
      "batch": false,
      "trace": false,
      "checkpoint_every": 10,
      "faults": {"events": [{"cycle": 1, "action": "fail_node", "u": [2, 1]}]},
      "jobs": [{"name": "a", "program": "reduction", "tree_n": 15,
                "capacity": 4, "height": 3}]
    }

``jobs`` entries are verbatim :meth:`repro.runtime.JobSpec.from_obj`
documents; ``faults`` is a verbatim
:meth:`repro.simulate.FaultSchedule.from_obj` document (or the bare event
list).  ``policy`` and ``router`` accept either a registry name (as
above) or an inline :class:`repro.policy.PolicyDoc` document — a tuned
decision tree travels inside the scenario it was tuned for, so the
service needs no side channel to run it.  Unknown keys anywhere raise
:class:`ValueError` — a typo'd knob must not silently run with defaults.

Determinism contract: a scenario fully determines its
:class:`~repro.runtime.RuntimeResult`.  ``run_scenario`` in-process, a
worker process on any shard, and a worker that was SIGKILLed and resumed
from a checkpoint all produce *bit-identical* result dicts — gated in
``tests/test_service.py`` and ``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..networks import TOPOLOGIES
from ..policy.dsl import PolicyDoc
from ..runtime import AdmissionError, Job, JobSpec, Runtime, RuntimeResult
from ..runtime.policies import make_policy
from ..simulate import ENGINES, FaultSchedule
from ..simulate.routing import ROUTERS

__all__ = ["SCENARIO_VERSION", "Scenario", "run_scenario", "drive_runtime"]

#: wire-format version of the scenario document; bumped on breaking change
SCENARIO_VERSION = 1

_KNOWN_KEYS = {
    "version", "name", "description", "priority", "host", "policy",
    "router", "engine", "max_load", "link_capacity", "batch", "trace",
    "checkpoint_every", "faults", "jobs",
}


@dataclass(frozen=True)
class Scenario:
    """One validated scenario document (see the module docstring)."""

    name: str
    host_name: str
    host_args: tuple = ()
    jobs: tuple[JobSpec, ...] = ()
    faults: FaultSchedule | None = None
    #: registry name, or an inline routing-domain policy document (dict)
    router: str | dict = "deterministic"
    #: registry name, or an inline scheduling-domain policy document (dict)
    policy: str | dict | None = None
    engine: str = "auto"
    max_load: int = 16
    link_capacity: int = 1
    batch: bool = False
    trace: bool = False
    checkpoint_every: int = 10
    priority: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        if self.host_name not in TOPOLOGIES:
            raise ValueError(
                f"unknown host topology {self.host_name!r}: "
                f"expected one of {sorted(TOPOLOGIES)}"
            )
        if not self.jobs:
            raise ValueError(f"scenario {self.name!r} has no jobs")
        # inline documents are validated (and canonicalised) via PolicyDoc
        # so a malformed tree is rejected at submission, not on a worker
        if isinstance(self.router, dict):
            doc = PolicyDoc.from_obj(self.router)
            if doc.domain != "routing":
                raise ValueError(
                    f"scenario router document {doc.name!r} has domain "
                    f"{doc.domain!r}, expected 'routing'"
                )
            object.__setattr__(self, "router", doc.as_dict())
        elif self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}: expected one of {sorted(ROUTERS)}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: expected one of {ENGINES}"
            )
        if isinstance(self.policy, dict):
            doc = PolicyDoc.from_obj(self.policy)
            if doc.domain != "scheduling":
                raise ValueError(
                    f"scenario policy document {doc.name!r} has domain "
                    f"{doc.domain!r}, expected 'scheduling'"
                )
            object.__setattr__(self, "policy", doc.as_dict())
        else:
            make_policy(self.policy)  # raises on unknown policy names
        if self.priority < 1:
            raise ValueError(f"priority must be >= 1, got {self.priority}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate job names")

    # -- wire format ----------------------------------------------------
    @classmethod
    def from_obj(cls, obj: dict) -> "Scenario":
        """Parse and validate one scenario document (parsed JSON)."""
        if not isinstance(obj, dict):
            raise ValueError(f"scenario must be a JSON object, got {type(obj).__name__}")
        version = obj.get("version")
        if version != SCENARIO_VERSION:
            raise ValueError(
                f"unsupported scenario version {version!r} "
                f"(this build reads {SCENARIO_VERSION})"
            )
        unknown = set(obj) - _KNOWN_KEYS
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        for key in ("name", "host", "jobs"):
            if key not in obj:
                raise ValueError(f"scenario is missing required field {key!r}")
        host = obj["host"]
        if not isinstance(host, dict) or "name" not in host:
            raise ValueError('scenario "host" must be {"name": ..., "args": [...]}')
        faults = obj.get("faults")
        return cls(
            name=obj["name"],
            host_name=host["name"],
            host_args=tuple(host.get("args", ())),
            jobs=tuple(JobSpec.from_obj(j) for j in obj["jobs"]),
            faults=None if faults is None else FaultSchedule.from_obj(faults),
            router=obj.get("router", "deterministic"),
            policy=obj.get("policy"),
            engine=obj.get("engine", "auto"),
            max_load=obj.get("max_load", 16),
            link_capacity=obj.get("link_capacity", 1),
            batch=bool(obj.get("batch", False)),
            trace=bool(obj.get("trace", False)),
            checkpoint_every=obj.get("checkpoint_every", 10),
            priority=obj.get("priority", 1),
            description=obj.get("description", ""),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        return cls.from_obj(json.loads(Path(path).read_text()))

    def as_dict(self) -> dict:
        """JSON-safe round-trip form (``from_obj(as_dict())`` is identity)."""
        d: dict = {
            "version": SCENARIO_VERSION,
            "name": self.name,
            "host": {"name": self.host_name, "args": list(self.host_args)},
            "jobs": [j.as_dict() for j in self.jobs],
        }
        if self.description:
            d["description"] = self.description
        if self.faults is not None:
            # to_obj stamps the fault-schedule version when byzantine
            # events are present, so they survive the service wire
            d["faults"] = self.faults.to_obj()
        if self.router != "deterministic":
            d["router"] = copy.deepcopy(self.router)
        if self.policy is not None:
            d["policy"] = copy.deepcopy(self.policy)
        if self.engine != "auto":
            d["engine"] = self.engine
        if self.max_load != 16:
            d["max_load"] = self.max_load
        if self.link_capacity != 1:
            d["link_capacity"] = self.link_capacity
        if self.batch:
            d["batch"] = True
        if self.trace:
            d["trace"] = True
        if self.checkpoint_every != 10:
            d["checkpoint_every"] = self.checkpoint_every
        if self.priority != 1:
            d["priority"] = self.priority
        return d

    # -- placement signals ---------------------------------------------
    @property
    def weight(self) -> int:
        """Occupancy the scenario will claim: the sum of its jobs' capacity
        shares of the load-16 bound.  The fleet places scenarios on the
        shard with the least outstanding weight, so a host-filling
        contention scenario counts 4x a single capacity-4 tenant."""
        return sum(j.capacity for j in self.jobs)

    # -- execution ------------------------------------------------------
    def build_runtime(self, *, recorder=None) -> Runtime:
        """Instantiate the runtime and admit every job (admission order =
        document order, which fixes the schedule deterministically)."""
        host = TOPOLOGIES[self.host_name](*self.host_args)
        rt = Runtime(
            host,
            router=self.router,
            faults=self.faults,
            recorder=recorder,
            policy=self.policy,
            max_load=self.max_load,
            link_capacity=self.link_capacity,
            engine=self.engine,
        )
        for spec in self.jobs:
            rt.admit(spec)
        return rt


def _normalise_admissions(entries) -> list[tuple[int, JobSpec]]:
    """``(cycle, spec-or-dict)`` pairs into sorted ``(cycle, JobSpec)``."""
    out = []
    for cycle, spec in entries or ():
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_obj(spec)
        out.append((int(cycle), spec))
    out.sort(key=lambda e: (e[0], e[1].name))
    return out


def _admit_due(
    rt: Runtime,
    pending: list[tuple[int, JobSpec]],
    attempted: set[str],
    *,
    up_to: int | None = None,
) -> list[tuple[int, JobSpec]]:
    """Admit every pending spec whose cycle has arrived; return the rest.

    Specs whose job name is already in the runtime are skipped silently —
    that makes replayed admissions idempotent across a crash/resume (the
    admitted job travels in the checkpoint).  An over-load admission
    counts ``admit.rejected`` and is dropped; a successful one counts
    ``admit.live``.
    """
    cutoff = rt.cycle if up_to is None else max(rt.cycle, up_to)
    keep: list[tuple[int, JobSpec]] = []
    for cycle, spec in pending:
        if cycle > cutoff:
            keep.append((cycle, spec))
            continue
        attempted.add(spec.name)
        if any(j.spec.name == spec.name for j in rt.jobs):
            continue
        try:
            rt.admit(spec)
        except AdmissionError:
            rt.counters["admit.rejected"] += 1
        else:
            rt.counters["admit.live"] += 1
    return keep


def drive_runtime(
    rt: Runtime,
    *,
    batch: bool = False,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 10,
    heartbeat=None,
    admissions=None,
    admission_poll=None,
) -> RuntimeResult:
    """Step ``rt`` to a terminal state with periodic atomic checkpoints.

    The single stepping loop the whole service shares — the in-process
    reference (:func:`run_scenario`), the worker processes, and the CLI
    all drive runtimes through it, so there is exactly one behaviour to
    trust for the bit-identity gates.  ``heartbeat`` (if given) is called
    once per checkpoint interval so a supervisor can see liveness.

    ``admissions`` is a list of ``(cycle, JobSpec-or-dict)`` arrivals to
    admit mid-run: each is admitted before the first superstep at or
    after its cycle.  When every resident job drains before an arrival's
    cycle, the arrival is admitted immediately (the runtime clock only
    advances by running work, so waiting would deadlock).
    ``admission_poll`` (if given) re-reads the authoritative arrival list
    once per checkpoint interval and at idle — the worker points it at
    the job store so ``POST /v1/jobs/<id>/admit`` lands mid-run.  Specs
    already admitted or already attempted are skipped, which keeps
    replayed admissions idempotent across crash/resume.
    """
    attempted: set[str] = set()
    pending = _normalise_admissions(admissions)

    def _poll() -> None:
        nonlocal pending
        if admission_poll is not None:
            pending = [
                (c, s)
                for c, s in _normalise_admissions(admission_poll())
                if s.name not in attempted
                and not any(j.spec.name == s.name for j in rt.jobs)
            ]

    steps = 0
    while True:
        pending = _admit_due(rt, pending, attempted)
        if (rt.step_batch() if batch else rt.step()) not in ([], None):
            steps += 1
            if steps % checkpoint_every == 0:
                if checkpoint_path is not None:
                    rt.checkpoint_json(checkpoint_path)
                if heartbeat is not None:
                    heartbeat()
                _poll()
            continue
        _poll()
        if not pending:
            break
        # idle with future arrivals: admit the earliest batch now
        pending = _admit_due(rt, pending, attempted, up_to=pending[0][0])
    if checkpoint_path is not None:
        rt.checkpoint_json(checkpoint_path)
    return rt.result()


def run_scenario(
    scenario: Scenario,
    *,
    recorder=None,
    checkpoint_path: str | Path | None = None,
) -> RuntimeResult:
    """Execute one scenario in-process and return its result.

    If ``checkpoint_path`` names an existing file, the runtime *resumes*
    from it (bit-identically) instead of starting over — exactly what a
    worker does after a crash.  This function is the reference the
    service's distributed results are compared against.
    """
    path = None if checkpoint_path is None else Path(checkpoint_path)
    if path is not None and path.exists():
        rt = Runtime.restore_json(path, recorder=recorder)
    else:
        rt = scenario.build_runtime(recorder=recorder)
    return drive_runtime(
        rt,
        batch=scenario.batch,
        checkpoint_path=path,
        checkpoint_every=scenario.checkpoint_every,
    )
