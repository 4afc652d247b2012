"""Workload ``service``: the shipped scenario library over REST.

Set-up gives every job of the ten ``scenarios/*.json`` documents a seeded
``tree_seed``, computes each document's in-process ``run_scenario``
reference, and brings up a one-shard ``Fleet`` behind an ``ApiServer``.
In the window two closed-loop client threads submit the documents in a
seeded order (a fresh permutation per round of ten), poll each job at a
fixed interval until its result is in hand, then submit the next.  The
window ends with a whole round, so every window runs the same mix of
jobs.  The worker runs on a CPU of its own, where a helper process samples
the calibration loop.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from harness import (
    Calibration, Ledger, Stopwatch, Tracer, derive_seed, lower_quartile, quantiles,
    vm_hwm_mib,
)
from repro.service import Fleet, Scenario, ServiceClient, drive_runtime, run_scenario
from repro.service.api import ApiServer
from repro.service.client import ServiceError

N_CLIENTS = 2
#: fixed poll interval; ServiceClient.wait's doubling backoff would put
#: latencies on steps of its sleep schedule
POLL_S = 0.02
JOB_TIMEOUT_S = 120.0

#: the calibration loop in a process of its own on the worker's CPU, until
#: its stdin closes; it prints its samples.  An in-process sampler would
#: share the interpreter lock with the client and server threads.  On the
#: clients' CPU its samples slowed as the clients got busier: the scaled
#: throughput then spread by 32% over five seeds.
CALIBRATION_HELPER = """
import json, os, sys, threading
os.sched_setaffinity(0, {int(sys.argv[1])})
sys.path[:0] = sys.argv[2:]
from harness import Calibration
cal = Calibration()
stop = threading.Event()
threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
while not stop.wait(cal.every_s):
    cal.sample()
print(json.dumps(cal.samples))
"""


@dataclass
class Doc:
    name: str
    doc: dict
    #: the in-process result after a JSON round trip, as a client sees it
    reference: dict
    #: in-process ``run_scenario`` seconds
    local_s: float


@dataclass
class State:
    seed: int
    docs: list[Doc]
    workdir: Path
    fleet: Fleet
    api: ApiServer
    client: ServiceClient
    #: this process's CPUs before set-up, and the CPU the worker runs on
    cpus: set[int]
    worker_cpu: int
    info: dict = field(default_factory=dict)
    submitted: int = 0


def _library(root: Path, seed: int) -> list[tuple[str, dict]]:
    out = []
    for path in sorted((root / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        for job in doc["jobs"]:
            job["tree_seed"] = derive_seed(seed, "service", doc["name"], job["name"])
        out.append((path.stem, doc))
    return out


def _reference(doc: dict) -> tuple[dict, float]:
    t0 = time.perf_counter()
    result = run_scenario(Scenario.from_obj(doc))
    elapsed = time.perf_counter() - t0
    ref = {"result": result.as_dict(), "exit_code": 0 if result.complete else 1}
    return json.loads(json.dumps(ref)), elapsed


def library(root: Path, seed: int) -> list[Doc]:
    """The seeded scenario library with each document's reference result."""
    return [Doc(name, doc, *_reference(doc)) for name, doc in _library(root, seed)]


def setup(seed: int, small: bool, workdir: Path, root: Path) -> State:
    # the worker forks before the references fill this process's heap
    fleet = Fleet(workdir / "store", n_shards=1)
    fleet.start()
    # the worker gets a CPU of its own, which the calibration helper shares
    cpus = os.sched_getaffinity(0)
    worker_cpu = max(cpus)
    for pid in fleet.worker_pids().values():
        os.sched_setaffinity(pid, {worker_cpu})
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus - {worker_cpu})
    docs = library(root, seed)
    api = ApiServer(fleet)
    api.serve_background()
    client = ServiceClient(f"http://127.0.0.1:{api.httpd.server_address[1]}")
    if not client.healthz():
        raise RuntimeError("service did not come up")
    return State(seed, docs, workdir, fleet, api, client, cpus, worker_cpu)


def finish(state: State, ledger: Ledger) -> None:
    pass


def teardown(state: State) -> float:
    """Stop the fleet; returns the worker processes' peak RSS in MiB."""
    workers = sum(vm_hwm_mib(pid) for pid in state.fleet.worker_pids().values() if pid)
    state.api.shutdown()
    state.fleet.stop()
    os.sched_setaffinity(0, state.cpus)
    shutil.rmtree(state.workdir / "store", ignore_errors=True)
    return workers


class Window:
    """What the load generator saw in one window."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.submit: list[float] = []
        self.queue_wait: list[float] = []
        self.run: list[float] = []
        self.overhead: list[float] = []
        self.elapsed = 0.0
        self.lock = threading.Lock()


def _rounds(state: State):
    """Rounds of the documents in a seeded order, a fresh permutation each."""
    rng = random.Random(derive_seed(state.seed, "order"))
    while True:
        yield rng.sample(state.docs, len(state.docs))


def _one_job(state: State, doc: Doc, job_id: str, ledger: Ledger, tracer: Tracer,
             window: Window) -> None:
    client = state.client
    t0 = time.perf_counter()
    try:
        with tracer.span("service.job", job=job_id):
            with tracer.span("service.submit", job=job_id):
                client.submit(doc.doc, job_id=job_id)
            t_submit = time.perf_counter()
            started = None
            while True:
                with tracer.span("service.poll", job=job_id):
                    status = client.job(job_id)["status"]
                now = time.perf_counter()
                if started is None and status != "queued":
                    started = now
                if status in ("done", "failed"):
                    break
                if now - t0 > JOB_TIMEOUT_S:
                    raise TimeoutError(f"still {status} after {JOB_TIMEOUT_S}s")
                time.sleep(POLL_S)
            t_end = now
            while True:  # the result may trail the status by a moment (409)
                try:
                    with tracer.span("service.result", job=job_id):
                        result = client.result(job_id)
                    break
                except ServiceError as exc:
                    if exc.status != 409 or time.perf_counter() - t0 > JOB_TIMEOUT_S:
                        raise
                    time.sleep(POLL_S)
    except (OSError, ServiceError, TimeoutError, ValueError) as exc:
        ledger.record(False, f"{job_id}: {type(exc).__name__}: {exc}")
        return
    latency = time.perf_counter() - t0
    same = (
        status == "done"
        and result.get("result") == doc.reference["result"]
        and result.get("exit_code") == doc.reference["exit_code"]
    )
    if not ledger.record(same, f"{job_id}: {status}, result differs from run_scenario"):
        return
    with window.lock:
        window.latency.append(latency)
        window.submit.append(t_submit - t0)
        window.queue_wait.append(started - t0)
        window.run.append(t_end - started)
        window.overhead.append(latency - doc.local_s)


def measure(state: State, seconds: float, ledger: Ledger, tracer: Tracer,
            cal: Calibration) -> Window:
    helper = subprocess.Popen(
        [sys.executable, "-c", CALIBRATION_HELPER, str(state.worker_cpu),
         str(Path(__file__).parent), str(Path(repro.__file__).resolve().parents[1])],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    window = Window()
    rounds = _rounds(state)
    pending: list[Doc] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        while True:
            with lock:
                if not pending:  # a new round starts only before the deadline
                    if time.perf_counter() >= deadline:
                        return
                    pending.extend(next(rounds))
                doc = pending.pop()
                state.submitted += 1
                job_id = f"s{state.seed}-{state.submitted:05d}-{doc.name}"
            _one_job(state, doc, job_id, ledger, tracer, window)

    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(N_CLIENTS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window.elapsed = time.perf_counter() - start
    finally:
        out, _ = helper.communicate("", timeout=60)
    cal.samples.extend(tuple(sample) for sample in json.loads(out))
    # a sample beside the busy worker sometimes waits out its time slice;
    # the lower quartile reads the ones that did not (over five seeds it
    # spread by 2.8% of the scaled throughput, the median by 6.4%)
    cal.statistic = lower_quartile
    return window


def primary(window: Window, cal: Calibration) -> float:
    return len(window.latency) / window.elapsed * cal.slowdown()


def end_to_end(state: State, window: Window, cal: Calibration) -> dict:
    return {"ops_per_s": (primary(window, cal), "ops/s")}


def replay(docs: list[Doc], workdir: Path, ledger: Ledger, tracer: Tracer,
           cal: Calibration) -> dict:
    """Per-layer runtime and checkpoint numbers from replaying each document
    in-process with the calls the worker makes: ``build_runtime``, then
    ``drive_runtime`` without a checkpoint path, then again with the
    document's checkpoint path and interval.  Replays must reproduce the
    reference results."""
    watch = Stopwatch()
    t0 = time.perf_counter()
    for doc in docs:
        cal.maybe_sample()
        scenario = Scenario.from_obj(doc.doc)
        with tracer.call("runtime.build", job=doc.name), watch.time("build"):
            rt = scenario.build_runtime()
        with tracer.call("runtime.drive", job=doc.name), watch.time("drive"):
            result = drive_runtime(rt, batch=scenario.batch)
        with tracer.call("runtime.checkpoint", job=doc.name), watch.time("checkpoint"):
            rt.checkpoint()
        path = workdir / f"replay-{doc.name}.json"
        rt = scenario.build_runtime()
        with tracer.call("service.drive_checkpointed", job=doc.name), \
                watch.time("drive_checkpointed"):
            checkpointed = drive_runtime(
                rt, batch=scenario.batch, checkpoint_path=path,
                checkpoint_every=scenario.checkpoint_every,
            )
        watch.add("bytes", 0.0, path.stat().st_size)
        path.unlink()
        watch.add("supersteps", 0.0, sum(j["supersteps_run"] for j in result.jobs))
        for label, res in (("replay", result), ("checkpointed replay", checkpointed)):
            got = json.loads(json.dumps(res.as_dict()))
            ledger.record(got == doc.reference["result"],
                          f"{doc.name}: {label} differs from run_scenario")
    slow = cal.slowdown(t0, time.perf_counter())
    return {
        "runtime.build_s": (watch.seconds["build"] / slow, "s"),
        "runtime.drive_s": (watch.seconds["drive"] / slow, "s"),
        "runtime.checkpoint_s": (watch.seconds["checkpoint"] / slow, "s"),
        "runtime.supersteps": (watch.counts["supersteps"], "count"),
        "service.checkpoint_io_s": (
            (watch.seconds["drive_checkpointed"] - watch.seconds["drive"]) / slow, "s"),
        "service.checkpoint_bytes": (watch.counts["bytes"], "bytes"),
    }


def per_layer(state: State, window: Window, tracer: Tracer, ledger: Ledger,
              setup_infos: list, cal: Calibration) -> dict:
    slow = cal.slowdown()
    med = statistics.median
    latency = quantiles(window.latency)
    return {
        **replay(state.docs, state.workdir, ledger, tracer, cal),
        "service.submit_s": (med(window.submit) / slow, "s"),
        "service.queue_wait_s": (med(window.queue_wait) / slow, "s"),
        "service.run_s": (med(window.run) / slow, "s"),
        "service.overhead_s": (med(window.overhead) / slow, "s"),
        "service.job_latency_p50_s": (latency["p50"] / slow, "s"),
        "service.job_latency_p90_s": (latency["p90"] / slow, "s"),
    }
