"""Workloads ``simulate.<part>``: the paper's experiment, guest programs on hosts.

Each part is a different use of the delivery layer, and a workload of its
own, so a gain on one path that costs another shows in that workload's
``ops_per_s`` (messages delivered per second):

* ``bsp``: barrier ``simulate_on_host`` of six tree programs on X(8) and
  four on G_n (t = 10) -- many small deliveries, so per-call overhead counts;
* ``congested``: ``hot_spot`` on X(7) -- deep queues.  One hot spot sits on
  each of the three lowest host levels, so every seed gets the same mix of
  terminal-bound and interior hot spots;
* ``pipelined``: one long ``deliver_scheduled`` of 10^5 messages in
  permutation waves on X(8), spaced past the single-wave makespan;
* ``faulted``: five BSP programs on X(6), once under seeded chaos link
  faults with a TTL and once under a corrupt/flaky byzantine mix -- the
  classic loop the ``auto`` engine falls back to under faults.

Set-up builds the part's embeddings, programs and schedules and runs the
first (cold) delivery on each host.  The window then repeats passes.  The
cost of a pass depends on its input (one tree makes ``neighbor_exchange``
2.5x slower than another), so a part has ``SETS`` seeded input sets, pass
k runs set k mod ``SETS``, and a window runs every set at least once.  A
rate sums, over the sets, each set's count over its median time across
the passes that ran it, so every window weighs the same inputs alike and
a noisy moment moves one sample of one set.  Nothing in the window runs
the construction, the runtime or the service.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import Calibration, Ledger, Stopwatch, Tracer, derive_seed
from repro import (
    PROGRAMS,
    SynchronousNetwork,
    UniversalGraph,
    embed_into_universal,
    make_tree,
    simulate_on_host,
    theorem1_embedding,
    theorem1_guest_size,
)
from repro.simulate import FaultSchedule, Message

FAMILY = "random"
BSP_PROGRAMS = ("reduction", "broadcast", "prefix_sum", "neighbor_exchange",
                "leaf_gossip", "permutation")
GN_PROGRAMS = ("reduction", "broadcast", "prefix_sum", "neighbor_exchange")
FAULTED_PROGRAMS = ("reduction", "broadcast", "prefix_sum", "neighbor_exchange",
                    "leaf_gossip")
PARTS = ("bsp", "congested", "pipelined", "faulted")
#: seeded input sets per part, cycled one per pass; a window runs each at
#: least once, and the digest covers all of them
SETS = {"bsp": 6, "congested": 1, "pipelined": 1, "faulted": 6}
#: cycles between permutation waves: past the single-wave makespan on X(8)
WAVE_SPACING = 60
CHAOS = {"link_rate": 0.2, "n_cycles": 400}
CHAOS_TTL = 256
BYZANTINE = {"link_rate": 0.0, "corrupt_rate": 0.1, "flaky_rate": 0.05, "n_cycles": 400}

SIZES = {
    # X-tree heights of the faulted, congested and bsp/pipelined hosts, the
    # G_n parameter t, and the messages in the pipelined schedule
    "full": {"faulted": 6, "congested": 7, "bsp": 8, "gn": 10, "pipelined": 100_000},
    "small": {"faulted": 3, "congested": 4, "bsp": 5, "gn": 7, "pipelined": 2_000},
}


@dataclass
class State:
    seed: int
    size: str
    part: str
    #: ``SETS[part]`` input sets; each a list of ``(label, *call arguments)``
    sets: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: canonical stats of each set's first run, keyed by set; later runs of
    #: the same set must reproduce them
    reference: dict = field(default_factory=dict)
    passes: int = 0


def _embed(r: int, seed: int, tag):
    tree = make_tree(FAMILY, theorem1_guest_size(r), seed=derive_seed(seed, "tree", r, tag))
    return theorem1_embedding(tree).embedding


def _bsp_set(k: int, seed: int, size: dict, graph) -> list:
    big = _embed(size["bsp"], seed, k)
    gn_tree = make_tree(FAMILY, graph.n_nodes, seed=derive_seed(seed, "tree", "gn", k))
    gn, _ = embed_into_universal(gn_tree, graph)
    out = []
    for name in BSP_PROGRAMS:
        kwargs = {"seed": derive_seed(seed, "permutation", k)} if name == "permutation" else {}
        out.append((f"{name}@X({size['bsp']})", PROGRAMS[name](big.guest, **kwargs), big))
    for name in GN_PROGRAMS:
        out.append((f"{name}@G_n", PROGRAMS[name](gn.guest), gn))
    return out


def _fault_set(k: int, seed: int, size: dict) -> list:
    embedding = _embed(size["faulted"], seed, ("faulted", k))
    out = []
    for name in FAULTED_PROGRAMS:
        prog = PROGRAMS[name](embedding.guest)
        chaos = FaultSchedule.chaos(embedding.host, seed=derive_seed(seed, "chaos", name, k),
                                    **CHAOS)
        byz = FaultSchedule.chaos(embedding.host, seed=derive_seed(seed, "byz", name, k),
                                  **BYZANTINE)
        out.append((f"{name}+chaos", prog, embedding, chaos, CHAOS_TTL))
        out.append((f"{name}+byzantine", prog, embedding, byz, None))
    return out


def _hot_spots(embedding, r: int, seed: int) -> list:
    """One default ``hot_spot`` program per host level r, r-1, r-2.

    The program's seed picks the hot guest node; seeds are drawn from the
    run seed until the hot node's image lies on the wanted level."""
    out = []
    for level in (r, r - 1, r - 2):
        for k in range(10_000):
            prog = PROGRAMS["hot_spot"](embedding.guest, seed=derive_seed(seed, "hot", level, k))
            hot = prog.supersteps[0][0][1]
            if embedding.phi[hot][0] == level:
                out.append((f"hot_spot@level{level}", prog, embedding))
                break
        else:
            raise RuntimeError(f"no hot spot found on level {level}")
    return out


def _waves(host, n_messages: int, seed: int) -> list:
    """Permutation waves over the host's nodes, ``WAVE_SPACING`` apart."""
    rng = random.Random(derive_seed(seed, "waves"))
    nodes = list(host.nodes())
    schedule = []
    wave = 0
    while len(schedule) < n_messages:
        targets = nodes[:]
        rng.shuffle(targets)
        for src, dst in zip(nodes, targets):
            if src != dst and len(schedule) < n_messages:
                schedule.append((wave * WAVE_SPACING, Message(len(schedule), src, dst)))
        wave += 1
    return schedule


def _first_delivery(embedding) -> float:
    """Run the first delivery on a fresh host; returns its cost over the
    same call warm (the routing tables it builds)."""
    prog = PROGRAMS["reduction"](embedding.guest)
    t0 = time.perf_counter()
    simulate_on_host(prog, embedding)
    t1 = time.perf_counter()
    simulate_on_host(prog, embedding)
    t2 = time.perf_counter()
    return (t1 - t0) - (t2 - t1)


def setup(seed: int, small: bool, workdir, root, part: str) -> State:
    size = SIZES["small" if small else "full"]
    state = State(seed, "small" if small else "full", part)
    if part == "bsp":
        graph = UniversalGraph(size["gn"])
        state.sets = [_bsp_set(k, seed, size, graph) for k in range(SETS["bsp"])]
        # every X-tree embedding has a fresh host with its own routing
        # tables; the G_n embeddings share ``graph``
        state.info["cold_route_s.xtree8"] = _first_delivery(state.sets[0][0][2])
        state.info["cold_route_s.gn10"] = _first_delivery(state.sets[0][-1][2])
        hosts = [s[0][2] for s in state.sets[1:]]
    elif part == "congested":
        embedding = _embed(size["congested"], seed, "congested")
        state.sets = [_hot_spots(embedding, size["congested"], seed)]
        hosts = [embedding]
    elif part == "pipelined":
        big = _embed(size["bsp"], seed, 0)
        schedule = _waves(big.host, size["pipelined"], seed)
        state.sets = [[("pipelined", SynchronousNetwork(big.host), schedule)]]
        hosts = [big]
    elif part == "faulted":
        state.sets = [_fault_set(k, seed, size) for k in range(SETS["faulted"])]
        hosts = [s[0][2] for s in state.sets]
    else:
        raise ValueError(f"unknown simulate part {part!r}")
    for emb in hosts:
        simulate_on_host(PROGRAMS["reduction"](emb.guest), emb)
    return state


def teardown(state: State) -> float:
    return 0.0


# -- canonical forms (what the digest covers) ------------------------------
def _execution(stats) -> dict:
    return {"cycles": stats.total_cycles, "ideal": stats.ideal_cycles,
            "steps": stats.per_superstep_cycles, "max_queue": stats.max_queue,
            "max_link_traffic": stats.max_link_traffic, "messages": stats.n_messages}


def _delivery(stats, index) -> dict:
    return {
        "cycles": stats.cycles,
        "delivered": sorted(stats.delivery_cycle.items()),
        "failed": sorted(stats.failed.items()),
        "links": sorted((index(u), index(v), c) for (u, v), c in stats.link_traffic.items()),
        "max_queue": stats.max_queue, "reroutes": stats.n_reroutes,
        "corrupted": stats.n_corrupted, "retransmits": stats.n_retransmits,
        "quarantined": stats.n_quarantined, "silent": stats.n_silent_corruptions,
    }


def _conserved(stats, ids: set) -> bool:
    """Every message delivered or failed, exactly once."""
    delivered, failed = set(stats.delivery_cycle), set(stats.failed)
    return not (delivered & failed) and delivered | failed == ids


def _run_faulted(prog, embedding, faults, ttl) -> list:
    """Barrier-synchronised delivery of ``prog`` under ``faults``: the same
    calls ``simulate_on_host`` makes in fault mode, keeping each
    superstep's ``DeliveryStats``."""
    net = SynchronousNetwork(embedding.host)
    out, base, msg_id = [], 0, 0
    for step in prog.supersteps:
        messages = []
        for src, dst in step:
            messages.append(Message(msg_id, embedding.phi[src], embedding.phi[dst]))
            msg_id += 1
        stats = net.deliver_scheduled([(0, m) for m in messages], faults=faults,
                                      ttl=ttl, fault_offset=base)
        base += stats.cycles
        out.append((stats, {m.msg_id for m in messages}))
    return out


def _call(part: str, args: tuple):
    """The one library call an operation of ``part`` times."""
    if part == "pipelined":
        net, schedule = args
        return net.deliver_scheduled(schedule)
    if part == "faulted":
        return _run_faulted(*args)
    prog, embedding = args
    return simulate_on_host(prog, embedding)


def _outcome(part: str, label: str, args: tuple, result, ledger: Ledger):
    """Checks one call's result; returns ``(messages, simulated cycles,
    canonical stats)``."""
    if part == "pipelined":
        net, schedule = args
        ledger.check(_conserved(result, {m.msg_id for _, m in schedule}),
                     f"{label}: message lost or counted twice")
        return len(schedule), result.cycles, _delivery(result, net.topology.index)
    if part == "faulted":
        prog, embedding = args[:2]
        for i, (stats, ids) in enumerate(result):
            ledger.check(_conserved(stats, ids), f"{label}[{i}]: message lost or counted twice")
            ledger.check(stats.n_silent_corruptions == 0, f"{label}[{i}]: silent corruption")
        return (prog.n_messages, sum(s.cycles for s, _ in result),
                [_delivery(s, embedding.host.index) for s, _ in result])
    return args[0].n_messages, result.total_cycles, _execution(result)


def _one_pass(state: State, k: int, ledger: Ledger, tracer: Tracer, watch: Stopwatch,
              cal: Calibration) -> list:
    """Run every call of pass ``k`` once; returns their canonical stats."""
    canon = []
    for label, *args in state.sets[k % len(state.sets)]:
        cal.maybe_sample()
        with tracer.call(f"simulate.{state.part}"), watch.time("call"):
            result = _call(state.part, args)
        messages, cycles, stats = _outcome(state.part, label, args, result, ledger)
        watch.add("messages", 0.0, messages)
        watch.add("cycles", 0.0, cycles)
        watch.add("calls", 0.0, 1)
        canon.append((label, stats))
    cal.maybe_sample()
    return canon


def measure(state: State, seconds: float, ledger: Ledger, tracer: Tracer,
            cal: Calibration) -> list:
    """Run passes until the window closes, and at least one per input set.

    Each timed call is one operation; it fails when it raises or its stats
    differ from the first run of the same input.  Returns ``(set, Stopwatch)``
    per pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < len(state.sets) or time.perf_counter() < deadline:
        watch = Stopwatch()
        k = state.passes % len(state.sets)
        try:
            canon = _one_pass(state, k, ledger, tracer, watch, cal)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            ledger.record(False, f"pass raised {type(exc).__name__}: {exc}")
            break
        reference = state.reference.setdefault(k, canon)
        for (label, got), (_, want) in zip(canon, reference):
            ledger.record(got == want, f"{label}: stats differ from its first run")
        passes.append((k, watch))
        state.passes += 1
    return passes


def digest(state: State) -> str:
    """sha256 over the stats of every input set.  On bsp it also covers a
    per-superstep replay of the first set, which adds its per-message
    delivery cycles and link traffic (``simulate_on_host`` reports only
    cycle counts)."""
    h = hashlib.sha256()
    h.update(json.dumps([state.reference[k] for k in range(len(state.sets))],
                        sort_keys=True).encode())
    if state.part != "bsp":
        return h.hexdigest()
    for label, prog, emb in state.sets[0]:
        net = SynchronousNetwork(emb.host)
        msg_id = 0
        for step in prog.supersteps:
            messages = []
            for src, dst in step:
                messages.append(Message(msg_id, emb.phi[src], emb.phi[dst]))
                msg_id += 1
            stats = net.deliver(messages)
            h.update(json.dumps([label, _delivery(stats, emb.host.index)]).encode())
    return h.hexdigest()


def expected_digest(part: str, size: str, seed: int) -> str | None:
    """The digest recorded in ``expected.json`` for this part, size and seed."""
    recorded = json.loads((Path(__file__).parent / "expected.json").read_text())
    return recorded[f"simulate.{part}"].get(size, {}).get(str(seed))


def finish(state: State, ledger: Ledger) -> None:
    """Compare the run's digest with the recorded one, where there is one."""
    if len(state.reference) < len(state.sets):
        return
    got = digest(state)
    want = expected_digest(state.part, state.size, state.seed)
    print(f"perfbench: simulate.{state.part} digest {state.size} seed {state.seed}: {got}",
          file=sys.stderr)
    if want is not None:
        ledger.record(got == want, f"digest {got} != recorded {want}")


def _rate(passes: list, cal: Calibration, count_key: str) -> float:
    """(Count under ``count_key``) per reference-machine second in the
    timed calls, summed over the input sets; a set's seconds are its median
    over the passes that ran it."""
    by_set: dict[int, list[Stopwatch]] = {}
    for k, p in passes:
        by_set.setdefault(k, []).append(p)
    count = sum(ps[0].counts[count_key] for ps in by_set.values())
    seconds = sum(
        statistics.median(p.seconds["call"] / cal.slowdown(*p.extent["call"]) for p in ps)
        for ps in by_set.values())
    return count / seconds


def primary(passes: list, cal: Calibration) -> float:
    return _rate(passes, cal, "messages")


def end_to_end(state: State, passes: list, cal: Calibration) -> dict:
    return {"ops_per_s": (primary(passes, cal), "ops/s")}


def _counts(state: State) -> dict:
    """Exact simulated counts over the input sets."""
    counts = {"cycles": 0, "ideal": 0, "max_queue": 0, "reroutes": 0, "retransmits": 0,
              "corrupted": 0, "failed": 0}
    for calls in state.reference.values():
        for _, c in calls:
            for stats in c if isinstance(c, list) else [c]:
                counts["cycles"] += stats["cycles"]
                counts["ideal"] += stats.get("ideal", 0)
                counts["max_queue"] = max(counts["max_queue"], stats["max_queue"])
                counts["reroutes"] += stats.get("reroutes", 0)
                counts["retransmits"] += stats.get("retransmits", 0)
                counts["corrupted"] += stats.get("corrupted", 0)
                counts["failed"] += len(stats.get("failed", ()))
    return counts


def per_layer(state: State, passes: list, tracer: Tracer, ledger: Ledger,
              setup_infos: list, cal: Calibration) -> dict:
    out = {
        "simulate.call_ms": (1e3 / _rate(passes, cal, "calls"), "ms"),
        "simulate.cycles_per_s": (_rate(passes, cal, "cycles"), "cycles/s"),
    }
    counts = _counts(state)
    for name in ("cycles", "max_queue", "reroutes", "retransmits", "corrupted", "failed"):
        out[f"simulate.{name}"] = (counts[name], "count")
    if counts["ideal"]:  # the paper's quantity, where the guest's cycles are known
        out["simulate.slowdown"] = (counts["cycles"] / counts["ideal"], "ratio")
    for key in ("cold_route_s.xtree8", "cold_route_s.gn10"):
        if key in state.info:
            out[f"oracle.{key}"] = (statistics.median(i[key] for i in setup_infos), "s")
    return out
