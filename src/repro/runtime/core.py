"""The multi-tenant runtime: admit, schedule, repair, checkpoint.

``Runtime`` turns the one-shot engine into a long-lived simulator of one
host serving many guest programs at once — the operational reading of
Theorem 1, whose load-16 bound exists precisely so many guest nodes share
one host processor:

* **Admission control** — a job is admitted only while the *combined*
  per-host-node image load of every active job stays within ``max_load``
  (16, the paper's constant).  Each job embeds with its own ``capacity``
  share, so e.g. two ``capacity=8`` jobs exactly fill the bound.
* **Scheduling** — a pluggable policy (:mod:`repro.runtime.policies`)
  picks which job runs its next superstep; one superstep is one
  barrier-synchronised delivery on the shared
  :class:`~repro.simulate.engine.SynchronousNetwork`, with the runtime's
  global cycle clock threading through ``fault_offset`` so a single
  :class:`~repro.simulate.faults.FaultSchedule` plays out across all
  tenants.  Per-job ``cycle_budget``\\ s terminate runaway tenants.
* **Online repair** — when a scheduled node death strands a job's guest
  images, the runtime calls
  :func:`~repro.simulate.faults.repair_embedding` *mid-run* (passing the
  other tenants' loads as ``extra_load`` so the repair never breaches
  ``max_load`` network-wide), migrates the stranded messages to the
  remapped hosts, and continues — emitting ``on_repair`` / ``on_migrate``
  trace events.  Latency faults (slow links) never trigger repair: a
  slow link delivers, just late.
* **Checkpoint / resume** — :meth:`Runtime.checkpoint` captures the whole
  runtime state as a JSON-safe dict (job specs + live counters, repaired
  embeddings, applied fault events, the adaptive router's learned
  estimates, the global clock); :meth:`Runtime.restore` rebuilds a
  runtime that continues *bit-identically* — same schedules, same
  delivery cycles, same final reports.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .._util import atomic_write_text, node_from_json, node_to_json
from ..networks import TOPOLOGIES
from ..obs import Recorder
from ..simulate.engine import Message, SynchronousNetwork
from ..simulate.faults import FaultEvent, FaultSchedule, repair_embedding
from ..simulate.routing import AdaptiveRouter, Router, make_router
from .jobs import Job, JobSpec
from .policies import SchedulerPolicy, make_policy

__all__ = ["Runtime", "RuntimeResult", "AdmissionError", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1


class AdmissionError(RuntimeError):
    """Admitting the job would breach the host's load bound."""


@dataclass
class RuntimeResult:
    """Final outcome of a runtime session."""

    makespan: int
    policy: str
    jobs: list[dict] = field(default_factory=list)
    n_repairs: int = 0
    n_migrated: int = 0
    #: named runtime counters (e.g. ``batch_fallback.faults``): observable
    #: evidence of silent degradations like batching falling back to
    #: per-job stepping.  Checkpointed, so restore keeps them bit-identical.
    counters: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every job finished with every message delivered."""
        return all(j["status"] == "done" and not j["failed"] for j in self.jobs)

    def as_dict(self) -> dict:
        """Canonical JSON-safe form; bit-identity checks compare these.

        *Canonical* means a JSON round-trip is the identity:
        ``json.loads(json.dumps(d)) == d``.  JSON object keys are strings,
        so the jobs' int-keyed per-message maps are stringified (and
        numerically sorted, for byte-stable dumps) **here, once, at the
        serialisation boundary** — an in-process result therefore compares
        equal to the same result read back off the service's wire, and no
        caller needs the old "compare after a JSON round-trip" workaround.
        Gated by a fixed-point test in ``tests/test_runtime.py``.
        """
        jobs = []
        for j in self.jobs:
            j = dict(j)
            j["delivered"] = {
                str(m): c for m, c in sorted(j["delivered"].items())
            }
            j["failed"] = {str(m): r for m, r in sorted(j["failed"].items())}
            jobs.append(j)
        return {
            "makespan": self.makespan,
            "policy": self.policy,
            "n_repairs": self.n_repairs,
            "n_migrated": self.n_migrated,
            "counters": dict(self.counters),
            "jobs": jobs,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"runtime[{self.policy}]: {self.makespan} cycles, "
                 f"{len(self.jobs)} jobs, {self.n_repairs} repairs"]
        for j in self.jobs:
            lines.append(
                f"  {j['name']}: {j['status']}, {j['consumed_cycles']} cycles, "
                f"{j['n_delivered']}/{j['n_messages']} delivered"
                + (f", {len(j['failed'])} failed" if j["failed"] else "")
            )
        return "\n".join(lines)


def _host_spec(host) -> dict:
    """Constructor recipe for a registered topology (for checkpoints)."""
    if hasattr(host, "spec_args"):
        args = list(host.spec_args)
    elif hasattr(host, "rows"):
        args = [host.rows, host.cols]
    elif hasattr(host, "height"):
        args = [host.height]
    elif hasattr(host, "dimension"):
        args = [host.dimension]
    else:
        raise TypeError(
            f"cannot checkpoint host {host.name!r}: unknown constructor shape"
        )
    return {"name": host.name, "args": args}


def _policy_spec(policy: SchedulerPolicy) -> "str | dict":
    """Checkpoint form of the scheduling policy: a registry name for the
    built-ins, the full (self-describing) policy document for tree
    policies."""
    doc = getattr(policy, "doc", None)
    if doc is not None:
        return doc.as_dict()
    return policy.name


class Runtime:
    """A live scheduler multiplexing guest programs on one host network."""

    def __init__(
        self,
        host,
        *,
        router: Router | str | None = None,
        faults: FaultSchedule | None = None,
        recorder: Recorder | None = None,
        policy: SchedulerPolicy | str | None = None,
        max_load: int = 16,
        link_capacity: int = 1,
        engine: str = "auto",
    ):
        if max_load < 1:
            raise ValueError(f"max_load must be >= 1, got {max_load}")
        self.host = host
        self.network = SynchronousNetwork(
            host,
            link_capacity=link_capacity,
            router=router,
            engine=engine,
        )
        self.faults = faults
        self.recorder = recorder
        self.policy = make_policy(policy)
        self.policy.bind_runtime(self)
        self.max_load = max_load
        self.link_capacity = link_capacity
        self.engine = engine
        #: named counters — ``batch_fallback.<reason>`` records every round
        #: :meth:`step_batch` degraded to per-job stepping, so service-level
        #: batching regressions are observable instead of just slow
        self.counters: Counter = Counter()
        #: global clock: total host cycles consumed by all jobs so far —
        #: the ``fault_offset`` every superstep delivery runs at
        self.cycle = 0
        self._jobs: list[Job] = []
        #: hosts taken down by ``fail_node`` events and not yet healed —
        #: the *only* trigger for online repair (slow links never repair)
        self.dead_nodes: set[Any] = set()
        #: every fault event actually applied, in order (for restore)
        self.applied_events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> tuple[Job, ...]:
        return tuple(self._jobs)

    def occupancy(self, exclude: Job | None = None) -> Counter:
        """Combined per-host-node image load of every active job."""
        loads: Counter = Counter()
        for job in self._jobs:
            if job.status == "active" and job is not exclude:
                loads.update(job.embedding.phi.values())
        return loads

    def admit(self, spec: JobSpec | Job) -> Job:
        """Instantiate and accept a job, or raise :class:`AdmissionError`.

        The check is the load-16 slack argument run forward: combined
        images of all active jobs plus the newcomer must stay within
        ``max_load`` on every host node.  Terminal jobs release their
        share, so a long-lived runtime can admit waves of tenants.
        """
        job = spec if isinstance(spec, Job) else Job(spec, self.host)
        if any(j.spec.name == job.spec.name for j in self._jobs):
            raise AdmissionError(f"job name {job.spec.name!r} already admitted")
        loads = self.occupancy()
        loads.update(job.embedding.phi.values())
        worst_node, worst = max(loads.items(), key=lambda kv: (kv[1], str(kv[0])))
        if worst > self.max_load:
            raise AdmissionError(
                f"admitting {job.spec.name!r} would load host {worst_node!r} "
                f"to {worst} > max_load {self.max_load} "
                f"(Theorem 1's bound); lower the job's capacity or wait for "
                f"a tenant to finish"
            )
        self._jobs.append(job)
        return job

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def active_jobs(self) -> list[Job]:
        return [j for j in self._jobs if j.status == "active"]

    def step(self) -> Job | None:
        """Run one superstep of one policy-picked job.

        Returns the job that ran, or ``None`` when nothing is runnable.
        """
        active = self.active_jobs()
        if not active:
            return None
        job = self.policy.pick(active)
        self._run_superstep(job)
        return job

    def run(self, *, batch: bool = False) -> RuntimeResult:
        """Drive every admitted job to a terminal state.

        With ``batch=True`` each round co-schedules every active job whose
        next superstep's routes are link-disjoint from the others' (see
        :meth:`step_batch`) instead of running one job per step.
        """
        if batch:
            while self.step_batch():
                pass
        else:
            while self.step() is not None:
                pass
        return self.result()

    def step_batch(self) -> list[Job]:
        """Run one co-scheduled round of link-disjoint supersteps.

        Every active job whose next superstep's host routes share no
        directed link with the other batched jobs' routes is merged into
        *one* delivery on the shared network (one vectorised kernel
        invocation instead of one per job).  Because the routes are
        link-disjoint and a barrier round injects everything at once, each
        job's per-message delivery cycles — and hence its per-superstep
        cycle counts — are *bit-identical* to running its superstep solo
        (gated in ``tests/test_vector_engine.py``); only the global clock
        differs, advancing by the round's makespan (the jobs genuinely ran
        concurrently) rather than the sum of solo makespans.

        Jobs whose routes collide with an earlier-admitted job's, and all
        jobs when faults/TTL/recorder/adaptive routing are active (their
        bookkeeping is inherently per-delivery), fall back to the ordinary
        one-job :meth:`step`.  Returns the jobs that ran this round.

        Every fallback is *observable*: the reason is counted in
        ``counters["batch_fallback.<reason>"]`` and, when a recorder is
        listening, emitted as a ``batch_fallback`` trace event — a service
        that expects merged rounds can alert on the counter instead of
        discovering the regression as throughput loss.  Reasons:
        ``faults``, ``recorder``, ``adaptive_router``, ``ttl`` (a
        precondition of the merged delivery fails), ``single_job`` (fewer
        than two runnable jobs), ``link_overlap`` (routes collide, so no
        round of >= 2 link-disjoint jobs exists).
        """
        active = self.active_jobs()
        if not active:
            return []
        reasons = []
        if self.faults is not None:
            reasons.append("faults")
        if self._observing():
            reasons.append("recorder")
        if self.network.router.adaptive:
            reasons.append("adaptive_router")
        if any(j.spec.ttl is not None for j in active):
            reasons.append("ttl")
        if not reasons and len(active) < 2:
            reasons.append("single_job")
        if reasons:
            return self._batch_fallback(reasons, len(active))
        # greedy link-disjoint selection in admission order: a job joins
        # the round iff its routes avoid every link already claimed
        picked: list[tuple[Job, list[Message], int]] = []
        claimed: set[tuple[Any, Any]] = set()
        route = self.network.route
        for job in active:
            k = job.next_step
            phi = job.embedding.phi
            messages = []
            links: set[tuple[Any, Any]] = set()
            mid = job.msg_seq
            for src, dst in job.program.supersteps[k]:
                m = Message(mid, phi[src], phi[dst])
                messages.append(m)
                mid += 1
                if m.src != m.dst:
                    path = route(m.src, m.dst)
                    links.update(zip(path, path[1:]))
            if picked and (links & claimed):
                continue
            claimed |= links
            picked.append((job, messages, k))
        if len(picked) < 2:
            return self._batch_fallback(["link_overlap"], len(active))
        # merge into one delivery under fresh ids, then split per job
        merged: list[Message] = []
        owner: list[tuple[Job, int]] = []
        for job, messages, _k in picked:
            for m in messages:
                owner.append((job, m.msg_id))
                merged.append(Message(len(merged), m.src, m.dst))
        # fair-share weights snapshotted before the merged delivery drains
        # backlogs — the same pre-superstep pricing as _run_superstep, so
        # batched and solo runs accrue bit-identical virtual time
        weights = {id(job): job.fair_weight() for job, _m, _k in picked}
        stats = self.network.deliver(merged)
        base = self.cycle
        per_job_last: dict[int, int] = {}
        for fresh, local in stats.delivery_cycle.items():
            job, orig = owner[fresh]
            job.delivered[orig] = base + local if base else local
            ji = id(job)
            if local > per_job_last.get(ji, -1):
                per_job_last[ji] = local
        round_cycles = 0
        for job, messages, k in picked:
            job_cycles = per_job_last.get(id(job), 0)
            round_cycles = max(round_cycles, job_cycles)
            job.msg_seq += len(messages)
            job.consumed_cycles += job_cycles
            job.virtual_time += job_cycles / weights[id(job)]
            job.next_step = k + 1
            job.per_step_cycles.append(job.consumed_cycles)
            if job.next_step >= job.program.n_supersteps:
                job.status = "done"
            elif job.over_budget():
                job.status = "budget_exhausted"
        self.cycle += round_cycles
        return [job for job, _m, _k in picked]

    def _batch_fallback(self, reasons: list[str], n_active: int) -> list[Job]:
        """Degrade one batch round to :meth:`step`, leaving evidence.

        ``counters["batch_fallback.<reason>"]`` increments per reason per
        round; a listening recorder additionally gets a ``batch_fallback``
        trace event carrying all reasons at the current global cycle.
        """
        for reason in reasons:
            self.counters[f"batch_fallback.{reason}"] += 1
        if self._observing():
            self.recorder.on_batch_fallback(self.cycle, ";".join(reasons), n_active)
        job = self.step()
        return [job] if job is not None else []

    def result(self) -> RuntimeResult:
        return RuntimeResult(
            makespan=self.cycle,
            policy=self.policy.name,
            jobs=[j.report() for j in self._jobs],
            n_repairs=sum(j.n_repairs for j in self._jobs),
            n_migrated=sum(j.n_migrated for j in self._jobs),
            counters=dict(sorted(self.counters.items())),
        )

    # ------------------------------------------------------------------
    # Execution internals
    # ------------------------------------------------------------------
    def _observing(self) -> bool:
        return self.recorder is not None and self.recorder.enabled

    def _deliver(self, job: Job, messages: list[Message], label):
        """One delivery on the shared network, on the global clock.

        ``label`` is the phase suffix (a superstep index or ``"migrate"``);
        the phase string is only built when a recorder is listening.
        """
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.begin_phase(f"{job.spec.name}[{label}]")
        stats = self.network.deliver_scheduled(
            [(0, m) for m in messages],
            recorder=recorder,
            faults=self.faults,
            ttl=job.spec.ttl,
            fault_offset=self.cycle,
        )
        base = self.cycle
        self.cycle += stats.cycles
        job.consumed_cycles += stats.cycles
        job.n_reroutes += stats.n_reroutes
        # integrity accounting is guarded per counter: byzantine-free runs
        # must keep job states and runtime counters byte-identical to
        # builds that predate the protocol
        if stats.n_corrupted:
            job.n_corrupted += stats.n_corrupted
            self.counters["integrity.corrupted"] += stats.n_corrupted
        if stats.n_retransmits:
            job.n_retransmits += stats.n_retransmits
            self.counters["integrity.retransmits"] += stats.n_retransmits
        if stats.n_quarantined:
            self.counters["integrity.quarantined"] += stats.n_quarantined
        if stats.n_silent_corruptions:
            self.counters["integrity.silent"] += stats.n_silent_corruptions
        if stats.faults_applied:
            for ev in stats.faults_applied:
                self.applied_events.append(ev)
                if ev.action == "fail_node":
                    self.dead_nodes.add(ev.u)
                elif ev.action == "heal_node":
                    self.dead_nodes.discard(ev.u)
        if base:
            job.delivered.update(
                {mid: base + local for mid, local in stats.delivery_cycle.items()}
            )
        else:
            job.delivered.update(stats.delivery_cycle)
        return stats

    def _dead_images(self, job: Job) -> set:
        if not self.dead_nodes:  # fault-free fast path: skip the phi scan
            return set()
        return set(job.embedding.phi.values()) & self.dead_nodes

    def _repair(self, job: Job) -> None:
        """Remap ``job``'s images off the dead hosts, within global slack."""
        # the engine represents fail_node as failing every incident link;
        # those links are the death itself, not independent link faults,
        # and passing them along would wall the repair BFS inside the
        # dead node — keep only links that avoid dead endpoints
        down = {l for l in self.network.failed if not (l & self.dead_nodes)}
        result = repair_embedding(
            job.embedding,
            self.dead_nodes,
            max_load=self.max_load,
            failed_links=down,
            extra_load=self.occupancy(exclude=job),
        )
        job.embedding = result.embedding
        job.n_repairs += 1
        if self._observing():
            self.recorder.on_repair(self.cycle, job.spec.name, result.moved)

    def _migrate(self, job: Job, stranded: list[int]) -> None:
        """Re-send stranded messages through the repaired embedding.

        A migration is itself a delivery on the global clock (migrated
        traffic pays real cycles), and a further node death during it is
        handled by another repair round; the fault schedule is finite, so
        this terminates.
        """
        while stranded:
            self._repair(job)
            phi = job.embedding.phi
            messages = []
            for mid in stranded:
                src, dst, _step = job.endpoints[mid]
                messages.append(Message(mid, phi[src], phi[dst]))
            job.n_migrated += len(stranded)
            if self._observing():
                self.recorder.on_migrate(self.cycle, job.spec.name, stranded)
            stats = self._deliver(job, messages, "migrate")
            stranded = self._collect_failures(job, stats)

    def _collect_failures(self, job: Job, stats) -> list[int]:
        """Record terminal failures; return the repairably stranded mids.

        A message is *stranded* (migratable) only when it was partitioned
        and the job's images actually sit on dead nodes — a node death is
        repairable by remapping.  TTL expiries and pure link partitions
        are terminal: no remap can revive them.  Latency faults never
        reach here at all (slow links deliver).
        """
        if not stats.failed:
            return []
        if self._dead_images(job):
            stranded = [
                mid for mid, reason in stats.failed.items() if reason == "partitioned"
            ]
            for mid, reason in stats.failed.items():
                if reason != "partitioned":
                    job.failed[mid] = reason
            return sorted(stranded)
        job.failed.update(stats.failed)
        return []

    def _run_superstep(self, job: Job) -> None:
        k = job.next_step
        # fair-share accounting: snapshot the weight *before* the delivery
        # drains the backlog, so this superstep's cycles (including any
        # migration traffic it triggers) are priced at the weight they
        # actually ran under — that is what keeps virtual time monotone
        weight = job.fair_weight()
        consumed_before = job.consumed_cycles
        # proactive repair: a node death between this job's supersteps
        # strands its images before any message is even injected
        if self.dead_nodes and self._dead_images(job):
            self._repair(job)
        phi = job.embedding.phi
        messages = []
        append = messages.append
        mid = job.msg_seq
        # endpoints only matter for migration, which only a node death can
        # trigger — skip the per-message bookkeeping on fault-free runs
        endpoints = job.endpoints if self.faults is not None else None
        for src, dst in job.program.supersteps[k]:
            if endpoints is not None:
                endpoints[mid] = (src, dst, k)
            append(Message(mid, phi[src], phi[dst]))
            mid += 1
        job.msg_seq = mid
        stats = self._deliver(job, messages, k)
        if stats.failed:
            stranded = self._collect_failures(job, stats)
            if stranded:
                self._migrate(job, stranded)
        job.virtual_time += (job.consumed_cycles - consumed_before) / weight
        job.next_step = k + 1
        job.per_step_cycles.append(job.consumed_cycles)
        if job.next_step >= job.program.n_supersteps:
            job.status = "done"
        elif job.over_budget():
            job.status = "budget_exhausted"

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """The whole runtime state as a JSON-safe dict.

        Everything a bit-identical resume needs is captured: the host and
        router recipes, the adaptive router's learned estimates, the
        fault schedule and the prefix of it already applied, the global
        clock, and each job's spec + live counters + (possibly repaired)
        ``phi``.  The recorder is deliberately *not* part of the state —
        a restored runtime starts tracing fresh.
        """
        cp = {
            "version": CHECKPOINT_VERSION,
            "cycle": self.cycle,
            "max_load": self.max_load,
            "link_capacity": self.link_capacity,
            "engine": self.engine,
            "counters": dict(sorted(self.counters.items())),
            "policy": _policy_spec(self.policy),
            "host": _host_spec(self.host),
            "router": self.network.router.spec(),
            "faults": None if self.faults is None else self.faults.to_obj(),
            "applied_events": [e.as_dict() for e in self.applied_events],
            "dead_nodes": [node_to_json(n) for n in sorted(self.dead_nodes)],
            "jobs": [j.state() for j in self._jobs],
        }
        integrity = self._integrity_state()
        if integrity is not None:
            # only stamped when byzantine link state is live, so byzantine-
            # free checkpoints stay byte-identical to earlier builds
            cp["integrity"] = integrity
        return cp

    def _integrity_state(self) -> dict | None:
        """JSON-safe snapshot of the network's quarantine/EWMA state.

        Corruption and flaky rates are *not* captured here: they replay
        exactly from ``applied_events``.  Quarantine membership (with each
        link's absolute probe-heal cycle) and the corruption EWMA are the
        two pieces the events cannot reconstruct.  Retransmission backoff
        state never spans a checkpoint: deliveries are atomic between
        supersteps, so in-flight retransmits have always resolved by the
        time a checkpoint can be cut.
        """
        net = self.network
        if not net.quarantined and not net.corruption_ewma:
            return None
        index = net.topology.index

        def links(d):
            rows = sorted(
                ((sorted(l, key=index), v) for l, v in d.items()),
                key=lambda kv: (index(kv[0][0]), index(kv[0][1])),
            )
            return [[node_to_json(u), node_to_json(v), val] for (u, v), val in rows]

        return {
            "quarantined": links(net.quarantined),
            "ewma": links(net.corruption_ewma),
        }

    def checkpoint_json(self, path: str | Path) -> None:
        """Write :meth:`checkpoint` to ``path`` as compact JSON, atomically.

        The one checkpoint writer (``drive_runtime``, the worker and the
        ``runtime`` CLI all call it).  Compact separators keep
        :func:`json.dumps` on CPython's C encoder; any ``indent`` falls
        back to the pure-Python one.  The tmp + rename write means a crash
        or a failed write leaves the previous checkpoint intact.
        :meth:`restore_json` also reads the indented files of earlier
        builds.
        """
        text = json.dumps(self.checkpoint(), separators=(",", ":"))
        atomic_write_text(Path(path), text + "\n")

    @classmethod
    def restore(cls, state: dict, *, recorder: Recorder | None = None) -> "Runtime":
        """Rebuild a runtime that continues bit-identically.

        ``state`` is what :meth:`checkpoint` returned (parsed JSON is
        fine: node labels round-trip through the list form).  Pass a
        fresh ``recorder`` to trace the resumed half.
        """
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        spec = state["host"]
        try:
            topo_cls = TOPOLOGIES[spec["name"]]
        except KeyError:
            raise ValueError(f"unknown host topology {spec['name']!r}") from None
        host = topo_cls(*spec["args"])
        rspec = state["router"]
        if rspec["name"] == "tree":
            from ..policy import PolicyDoc
            from ..policy.route import TreeRouter

            router: Router = TreeRouter(
                PolicyDoc.from_obj(rspec["doc"]), **rspec["params"]
            )
        elif rspec["name"] == "adaptive":
            router = AdaptiveRouter(**rspec["params"])
        else:
            router = make_router(rspec["name"])
        faults = (
            None if state["faults"] is None else FaultSchedule.from_obj(state["faults"])
        )
        rt = cls(
            host,
            router=router,
            faults=faults,
            recorder=recorder,
            policy=state["policy"],
            max_load=state["max_load"],
            link_capacity=state["link_capacity"],
            engine=state.get("engine", "auto"),
        )
        rt.counters.update(state.get("counters", {}))
        for entry in state["applied_events"]:
            # FaultEvent.from_dict, not FaultSchedule.from_obj: replayed
            # entries are internal state, exempt from the wire-format
            # version gate a bare byzantine event list would trip
            ev = FaultEvent.from_dict(entry)
            rt.network._apply_fault_event(ev)
            rt.applied_events.append(ev)
        integrity = state.get("integrity")
        if integrity:
            # quarantined links re-fail first (fail_link cancels any stale
            # probe entry), then the probe cycles and EWMA overlay on top
            for u, v, probe in integrity.get("quarantined", ()):
                u, v = node_from_json(u), node_from_json(v)
                if frozenset((u, v)) not in rt.network.failed:
                    rt.network.fail_link(u, v)
                rt.network.quarantined[frozenset((u, v))] = probe
            for u, v, ewma in integrity.get("ewma", ()):
                link = frozenset((node_from_json(u), node_from_json(v)))
                rt.network.corruption_ewma[link] = ewma
        rt.network.router.load_state(rspec["state"])
        rt.cycle = state["cycle"]
        rt.dead_nodes = {node_from_json(n) for n in state["dead_nodes"]}
        for jstate in state["jobs"]:
            rt._jobs.append(Job.from_state(jstate, host))
        return rt

    @classmethod
    def restore_json(
        cls, path: str | Path, *, recorder: Recorder | None = None
    ) -> "Runtime":
        return cls.restore(json.loads(Path(path).read_text()), recorder=recorder)
