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
  remapped hosts, and continues — emitting ``repair`` / ``migrate``
  trace events.  Latency faults (slow links) never trigger repair: a
  slow link delivers, just late.
* **Checkpoint / resume** — :meth:`Runtime.checkpoint` captures the whole
  runtime state as a JSON-safe dict (job specs + live counters, repaired
  embeddings, applied fault events, the adaptive router's learned
  estimates, the global clock); :meth:`Runtime.restore` rebuilds a
  runtime that continues *bit-identically* — same schedules, same
  delivery cycles, same final reports.  :meth:`Runtime.checkpoint_json`
  keeps that state in a file as a base plus one appended delta per cut,
  so a cut costs what changed since the previous one.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .._util import (
    atomic_write_text,
    check_items,
    check_object,
    check_rows,
    is_int,
    is_number,
    node_from_json,
    node_to_json,
)
from ..networks import build_host, host_params
from ..obs import Recorder
from ..simulate.engine import Message, SynchronousNetwork
from ..simulate.faults import (
    FaultEvent,
    FaultSchedule,
    check_event_endpoints,
    repair_embedding,
)
from ..simulate.mapping import deliver_superstep
from ..simulate.routing import Router, router_from_spec
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
    ):
        if max_load < 1:
            raise ValueError(f"max_load must be >= 1, got {max_load}")
        self.host = host
        self.network = SynchronousNetwork(
            host,
            link_capacity=link_capacity,
            router=router,
        )
        self.faults = faults
        self.recorder = recorder
        self.policy = make_policy(policy)
        self.policy.bind_runtime(self)
        self.max_load = max_load
        self.link_capacity = link_capacity
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
        #: where this runtime's checkpoint file stands, for the next delta
        self._file_cut: _FileCut | None = None

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

        A :class:`JobSpec` is built with :meth:`Job.build`; a prebuilt
        :class:`Job` is accepted only when its embedding sits on this
        runtime's host instance.  The check is the load-16 slack argument
        run forward: combined images of all active jobs plus the newcomer
        must stay within ``max_load`` on every host node.  Terminal jobs
        release their share, so a long-lived runtime can admit waves of
        tenants.
        """
        if isinstance(spec, Job):
            job = spec
            if job.embedding.host is not self.host:
                raise ValueError(
                    f"job {job.spec.name!r} embeds into another host instance; "
                    "build it with Job.build(spec, runtime.host)"
                )
        else:
            job = Job.build(spec, self.host)
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
        if self.recorder is not None:
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
        picked: list[Job] = []
        claimed: set[tuple[Any, Any]] = set()
        route = self.network.route
        for job in active:
            phi = job.embedding.phi
            links: set[tuple[Any, Any]] = set()
            for src, dst in job.program.supersteps[job.next_step]:
                u, v = phi[src], phi[dst]
                if u != v:
                    path = route(u, v)
                    links.update(zip(path, path[1:]))
            if picked and (links & claimed):
                continue
            claimed |= links
            picked.append(job)
        if len(picked) < 2:
            return self._batch_fallback(["link_overlap"], len(active))
        # merge into one delivery under fresh ids, then split per job
        merged: list[Message] = []
        owner: list[tuple[int, Job, int]] = []
        for i, job in enumerate(picked):
            phi = job.embedding.phi
            for mid, (src, dst) in enumerate(job.program.supersteps[job.next_step], job.msg_seq):
                owner.append((i, job, mid))
                merged.append(Message(len(merged), phi[src], phi[dst]))
        # fair-share weights snapshotted before the merged delivery drains
        # backlogs — the same pre-superstep pricing as _run_superstep, so
        # batched and solo runs accrue bit-identical virtual time
        weights = [job.fair_weight() for job in picked]
        stats = self.network.deliver(merged)
        base = self.cycle
        # each picked job's last delivery cycle: its superstep's makespan
        last = [0] * len(picked)
        for fresh, local in stats.delivery_cycle.items():
            i, job, orig = owner[fresh]
            job.delivered[orig] = base + local if base else local
            if local > last[i]:
                last[i] = local
        for job, weight, job_cycles in zip(picked, weights, last):
            job.msg_seq += len(job.program.supersteps[job.next_step])
            job.consumed_cycles += job_cycles
            job.finish_superstep(job_cycles, weight)
        self.cycle += max(last)
        return picked

    def _batch_fallback(self, reasons: list[str], n_active: int) -> list[Job]:
        """Degrade one batch round to :meth:`step`, leaving evidence.

        ``counters["batch_fallback.<reason>"]`` increments per reason per
        round; a listening recorder additionally gets a ``batch_fallback``
        trace event carrying all reasons at the current global cycle.
        """
        for reason in reasons:
            self.counters[f"batch_fallback.{reason}"] += 1
        if self.recorder is not None:
            self.recorder.on_event(
                self.cycle, "batch_fallback", -1,
                detail=f"{';'.join(reasons)} n_active={n_active}",
            )
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
    def _deliver(self, job: Job, pairs, ids, label):
        """Deliver ``job``'s guest ``pairs`` under message ``ids`` through
        its current embedding, on the shared network and the global clock.

        ``label`` is the phase suffix (a superstep index or ``"migrate"``).
        """
        stats = deliver_superstep(
            self.network, pairs, job.embedding, ids, f"{job.spec.name}[{label}]",
            recorder=self.recorder, faults=self.faults, ttl=job.spec.ttl,
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
        if self.recorder is not None:
            self.recorder.on_event(
                self.cycle, "repair", -1, job.spec.name, detail=f"moved={len(result.moved)}"
            )

    def _migrate(self, job: Job, stranded: list[int]) -> None:
        """Re-send stranded messages through the repaired embedding.

        A migration is itself a delivery on the global clock (migrated
        traffic pays real cycles), and a further node death during it is
        handled by another repair round; the fault schedule is finite, so
        this terminates.
        """
        # ids are handed out contiguously per superstep in program order,
        # and every stranded id belongs to the superstep now running
        pairs = job.program.supersteps[job.next_step]
        first = job.msg_seq - len(pairs)
        while stranded:
            self._repair(job)
            job.n_migrated += len(stranded)
            if self.recorder is not None:
                self.recorder.on_event(
                    self.cycle, "migrate", -1, job.spec.name,
                    detail=f"messages={len(stranded)}",
                )
            stats = self._deliver(
                job, [pairs[mid - first] for mid in stranded], stranded, "migrate"
            )
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
        pairs = job.program.supersteps[k]
        first = job.msg_seq
        job.msg_seq += len(pairs)
        stats = self._deliver(job, pairs, range(first, job.msg_seq), k)
        if stats.failed:
            stranded = self._collect_failures(job, stats)
            if stranded:
                self._migrate(job, stranded)
        job.finish_superstep(job.consumed_cycles - consumed_before, weight)

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
        return {
            "version": CHECKPOINT_VERSION,
            "max_load": self.max_load,
            "link_capacity": self.link_capacity,
            "policy": _policy_spec(self.policy),
            "host": {
                "name": self.host.name,
                "args": list(host_params(self.host).values()),
            },
            "faults": None if self.faults is None else self.faults.to_obj(),
            "applied_events": [e.as_dict() for e in self.applied_events],
            "jobs": [j.state() for j in self._jobs],
            **self._small_state(),
        }

    def _small_state(self) -> dict:
        """The part of :meth:`checkpoint` a file delta repeats in full."""
        state = {
            "cycle": self.cycle,
            "counters": dict(sorted(self.counters.items())),
            "router": self.network.router.spec(),
            "dead_nodes": [node_to_json(n) for n in sorted(self.dead_nodes)],
        }
        integrity = self._integrity_state()
        if integrity is not None:
            # only stamped when byzantine link state is live, so byzantine-
            # free checkpoints carry no integrity key at all
            state["integrity"] = integrity
        return state

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
        """Cut a checkpoint into the file at ``path``.

        The one checkpoint writer (``drive_runtime``, the worker and the
        ``runtime`` CLI all call it).  The file is a *base*, the compact
        :meth:`checkpoint` document on one line, followed by one appended
        *delta* line per later cut, numbered ``"delta": 1, 2, ...``.  A
        delta repeats the small state (clock, counters, router, dead
        nodes, integrity) and holds only the new tail of
        ``applied_events``, each job's delta (:meth:`Job.delta`) and the
        full state of every job admitted since the previous cut.

        A fresh base is written through tmp + rename, so a failed or
        killed base write leaves the previous file intact.  It replaces
        the file at the first cut, at every cut whose delta would take the
        deltas past the base's own size (the file stays under twice a full
        checkpoint), and whenever the file is not the one this writer left
        (another writer replaced it, or an earlier append raised or was
        cut short).  Compact separators keep :func:`json.dumps` on
        CPython's C encoder.  Neither write calls fsync.
        """
        path = Path(path)
        last, self._file_cut = self._file_cut, None
        if last is not None and last.path == path:
            delta = self._small_state()
            delta["delta"] = last.k + 1
            delta["applied_events"] = [
                e.as_dict() for e in self.applied_events[last.n_events:]
            ]
            delta["jobs"] = [
                job.delta(cut) for job, cut in zip(self._jobs, last.jobs)
            ] + [job.state() for job in self._jobs[len(last.jobs):]]
            line = (json.dumps(delta, separators=(",", ":")) + "\n").encode()
            if last.size + len(line) <= 2 * last.base and _append(
                path, (last.inode, last.size), line
            ):
                last.size += len(line)
                last.k += 1
                last.n_events = len(self.applied_events)
                last.jobs = [job.cut() for job in self._jobs]
                self._file_cut = last
                return
        text = json.dumps(self.checkpoint(), separators=(",", ":")) + "\n"
        st = atomic_write_text(path, text)
        self._file_cut = _FileCut(
            path, st.st_ino, st.st_size, st.st_size, 0,
            len(self.applied_events), [job.cut() for job in self._jobs],
        )

    @classmethod
    def restore(cls, state: dict, *, recorder: Recorder | None = None) -> "Runtime":
        """Rebuild a runtime that continues bit-identically.

        ``state`` is what :meth:`checkpoint` returned (parsed JSON is
        fine: node labels round-trip through the list form).  Pass a
        fresh ``recorder`` to trace the resumed half.

        Every field is checked for type and range before it is used, fault
        events and node labels against the host: a malformed state raises
        :class:`ValueError` whose message starts with the field's path,
        e.g. ``checkpoint.jobs[0].next_step must be ...``, and a state
        that restores runs.
        """
        check_object(state, "checkpoint")
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint.version: unsupported checkpoint version {version!r} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        check_object(state, "checkpoint", (
            "max_load", "link_capacity", "policy", "host", "faults",
            "applied_events", "jobs", "cycle", "router", "dead_nodes",
        ))
        counters = check_object(state.get("counters", {}), "checkpoint.counters")
        for name, ok, want in (
            ("max_load", is_int(state["max_load"], 1), "an integer >= 1"),
            ("link_capacity", is_int(state["link_capacity"], 1), "an integer >= 1"),
            ("cycle", is_int(state["cycle"], 0), "an integer >= 0"),
            ("policy", state["policy"] is None or isinstance(state["policy"], (str, dict)),
             "null, a policy name or a policy document"),
            ("counters", all(is_int(n, 0) for n in counters.values()),
             "an object of integers >= 0"),
            ("applied_events", isinstance(state["applied_events"], list), "a list of events"),
            ("jobs", isinstance(state["jobs"], list), "a list of job states"),
        ):
            if not ok:
                raise ValueError(f"checkpoint.{name} must be {want}, got {state[name]!r}")
        spec = check_object(state["host"], "checkpoint.host", ("name", "args"))
        if not (isinstance(spec["name"], str) and isinstance(spec["args"], list)):
            raise ValueError(
                f'checkpoint.host must be {{"name": <string>, "args": [...]}}, got {spec!r}'
            )
        try:
            host = build_host(spec["name"], spec["args"])
        except ValueError as exc:
            raise ValueError(f"checkpoint.host: {exc}") from None
        try:
            policy = make_policy(state["policy"])
        except ValueError as exc:
            raise ValueError(f"checkpoint.policy: {exc}") from None
        node = (lambda n: host.has_node(node_from_json(n)), f"a node of host {host.name}")
        faults = state["faults"]
        if faults is not None:
            faults = FaultSchedule.from_obj(faults, path="checkpoint.faults")
            check_event_endpoints(faults.events, host, "checkpoint.faults.events")
        # FaultEvent.from_dict, not FaultSchedule.from_obj: replayed
        # entries are internal state, exempt from the wire-format version
        # gate a bare byzantine event list would trip
        applied = [
            FaultEvent.from_dict(entry, path=f"checkpoint.applied_events[{i}]")
            for i, entry in enumerate(state["applied_events"])
        ]
        check_event_endpoints(applied, host, "checkpoint.applied_events")
        dead = check_items(state["dead_nodes"], "checkpoint.dead_nodes", *node)
        integrity = _integrity_rows(state.get("integrity"), host, node)
        jobs = [
            Job.from_state(jstate, host, path=f"checkpoint.jobs[{i}]")
            for i, jstate in enumerate(state["jobs"])
        ]
        rt = cls(
            host,
            router=_router_at(state["router"], node),
            faults=faults,
            recorder=recorder,
            policy=policy,
            max_load=state["max_load"],
            link_capacity=state["link_capacity"],
        )
        rt.counters.update(counters)
        for ev in applied:
            rt.network._apply_fault_event(ev)
            rt.applied_events.append(ev)
        # quarantined links re-fail first (fail_link cancels any stale probe
        # entry), then the probe cycles and EWMA overlay on top
        for u, v, probe in integrity["quarantined"]:
            rt.network.fail_link(u, v)
            rt.network.quarantined[frozenset((u, v))] = probe
        for u, v, ewma in integrity["ewma"]:
            rt.network.corruption_ewma[frozenset((u, v))] = ewma
        rt.cycle = state["cycle"]
        rt.dead_nodes = {node_from_json(n) for n in dead}
        rt._jobs.extend(jobs)
        return rt

    @classmethod
    def restore_json(
        cls, path: str | Path, *, recorder: Recorder | None = None
    ) -> "Runtime":
        """Restore the last complete cut of a :meth:`checkpoint_json` file.

        The base is decoded, then each delta in order until the first line
        that does not decode or whose number does not follow the one
        before it.  A strict prefix of a JSON object never decodes, so a
        torn last line yields exactly the previous cut.  Single-document
        files of earlier builds, compact or indented, are a bare base.
        """
        return cls.restore(_read_checkpoint(Path(path).read_text()), recorder=recorder)


@dataclass
class _FileCut:
    """What :meth:`Runtime.checkpoint_json` left in its file last time."""

    path: Path
    inode: int
    #: bytes in the file after the last write, and in its base line
    size: int
    base: int
    #: number of the last delta appended (0 before the first)
    k: int
    #: ``applied_events`` entries and :meth:`Job.cut` of every job written
    n_events: int
    jobs: list


def _append(path: Path, expect: tuple[int, int], data: bytes) -> bool:
    """Append ``data`` to ``path`` if its (inode, size) is still ``expect``.

    Returns False, writing nothing, when the file is gone or is not the
    one expected.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except FileNotFoundError:
        return False
    try:
        st = os.fstat(fd)
        if (st.st_ino, st.st_size) != expect:
            return False
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    return True


#: the per-job lists a delta extends; its other job keys replace
_JOB_TAILS = ("per_step_cycles", "delivered", "failed")


def _read_checkpoint(text: str) -> dict:
    """The :meth:`Runtime.checkpoint` dict at the last complete cut of a
    checkpoint file's ``text`` (see :meth:`Runtime.restore_json`)."""
    state, end = json.JSONDecoder().raw_decode(text, len(text) - len(text.lstrip()))
    k = 0
    for line in text[end:].split("\n"):
        if not line.strip():
            continue
        try:
            delta = json.loads(line)
        except json.JSONDecodeError:
            break
        if not isinstance(delta, dict) or delta.get("delta") != k + 1:
            break
        k += 1
        try:
            _apply_delta(state, delta)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"checkpoint delta {k} is malformed: {exc!r}") from None
    return state


def _apply_delta(state: dict, delta: dict) -> None:
    del delta["delta"]
    state.pop("integrity", None)  # a delta carries it while it is live
    state["applied_events"] += delta.pop("applied_events")
    jobs = state["jobs"]
    entries = delta.pop("jobs")
    for job, entry in zip(jobs, entries):
        for key in _JOB_TAILS:
            job[key] += entry.pop(key)
        job.update(entry)
    jobs.extend(entries[len(jobs):])  # admitted since the previous cut
    state.update(delta)


def _integrity_rows(integrity, host, node: tuple) -> dict[str, list]:
    """A checkpoint's ``integrity`` block as ``quarantined`` and ``ewma``
    rows of ``(u, v, value)``, each ``{u, v}`` a host link (see
    :meth:`Runtime._integrity_state`); both are empty without one."""
    rows = {"quarantined": [], "ewma": []}
    if integrity is None:
        return rows
    check_object(integrity, "checkpoint.integrity")
    for key, column in (
        ("quarantined", (lambda c: is_int(c, 0), "an integer >= 0 (a probe cycle)")),
        ("ewma", (lambda x: is_number(x) and 0 <= x <= 1, "a number in [0, 1]")),
    ):
        path = f"checkpoint.integrity.{key}"
        for i, (u, v, value) in enumerate(
            check_rows(integrity.get(key, []), path, node, node, column)
        ):
            u, v = node_from_json(u), node_from_json(v)
            if v not in host.neighbors(u):
                raise ValueError(f"{path}[{i}]: {u!r} -- {v!r} is not a link of {host.name}")
            rows[key].append((u, v, value))
    return rows


def _router_at(spec, node: tuple) -> Router:
    """The router a checkpoint's ``router`` field names (see
    :func:`~repro.simulate.routing.router_from_spec`), its learned state's
    node labels checked by the ``node`` column."""
    path = "checkpoint.router"
    check_object(spec, path, ("name", "params", "state"))
    name, params, learned = spec["name"], spec["params"], spec["state"]
    if name not in ("deterministic", "adaptive", "tree"):
        raise ValueError(
            f"{path}.name must be 'deterministic', 'adaptive' or 'tree', got {name!r}"
        )
    if name == "tree":
        check_object(spec, path, ("doc",))
    check_object(params, f"{path}.params")
    for key, value in params.items():
        if not is_number(value):
            raise ValueError(f"{path}.params.{key} must be a number, got {value!r}")
    if learned is not None:
        check_object(learned, f"{path}.state")
        number = (is_number, "a number")
        for key, columns in (
            ("link_ewma", (node, node, number)),
            ("queue_ewma", (node, number)),
            ("last_pick", (node, node, node)),
        ):
            check_rows(learned.get(key, []), f"{path}.state.{key}", *columns)
    try:
        return router_from_spec(spec)
    except (TypeError, ValueError) as exc:
        # the constructor is what knows its parameters: an unknown one is
        # a TypeError, one out of range a ValueError
        raise ValueError(f"{path}: {exc}") from None
