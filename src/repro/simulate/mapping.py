"""Run a guest tree program on a host network through an embedding.

``simulate_on_host`` is the end-to-end operationalisation of the paper:
take a binary-tree program, an embedding of its tree into a host (X-tree,
hypercube, ...), translate each guest communication into a host message
between the images, and measure how many clock cycles the host needs.

The headline quantity is the **slowdown** — host cycles divided by the
program's ideal cycles on its own tree.  For a dilation-``d`` embedding
with low congestion the slowdown stays near ``d``, which is exactly why
the paper minimises dilation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.embedding import Embedding
from ..obs import Recorder, span
from .engine import DeliveryStats, Message, SynchronousNetwork
from .faults import DegradedResult, FaultReport, FaultSchedule
from .programs import TreeProgram
from .routing import Router

__all__ = ["ExecutionStats", "simulate_on_host", "simulate_on_guest"]


def _fold_report(report: FaultReport, stats: DeliveryStats, key=lambda mid: mid) -> None:
    """Accumulate one delivery's fault outcome into a run-level report."""
    report.n_messages += stats.n_messages
    report.n_delivered += len(stats.delivery_cycle)
    report.applied = (*report.applied, *stats.faults_applied)
    report.n_reroutes += stats.n_reroutes
    report.n_corrupted += stats.n_corrupted
    report.n_retransmits += stats.n_retransmits
    report.n_quarantined += stats.n_quarantined
    for mid, reason in stats.failed.items():
        report.failed[key(mid)] = reason


@dataclass
class ExecutionStats:
    """Cycle accounting for one program execution."""

    program: str
    host_name: str
    n_supersteps: int
    n_messages: int
    total_cycles: int
    ideal_cycles: int
    per_superstep_cycles: list[int]
    max_link_traffic: int
    max_queue: int

    @property
    def slowdown(self) -> float:
        """Host cycles / guest-ideal cycles (1.0 = real time)."""
        if self.ideal_cycles == 0:
            return 1.0
        return self.total_cycles / self.ideal_cycles

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.program} on {self.host_name}: {self.total_cycles} cycles for "
            f"{self.n_messages} messages in {self.n_supersteps} supersteps "
            f"(ideal {self.ideal_cycles}, slowdown {self.slowdown:.2f})"
        )


def simulate_on_host(
    program: TreeProgram,
    embedding: Embedding,
    *,
    link_capacity: int = 1,
    barrier: bool = True,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    faults: FaultSchedule | None = None,
    ttl: int | None = None,
    engine: str = "auto",
) -> ExecutionStats | DegradedResult:
    """Execute ``program`` on ``embedding.host`` and return cycle counts.

    With ``barrier=True`` (default) supersteps are barrier-synchronised:
    all messages of superstep ``k`` must arrive before superstep ``k+1``
    starts (BSP semantics), matching how the guest program's one-cycle
    supersteps compose.

    With ``barrier=False`` superstep ``k``'s messages are injected at cycle
    ``k+1`` regardless of outstanding traffic (systolic/pipelined
    semantics): waves overlap in the network, which hides most of the
    dilation latency of well-embedded wave programs.  Per-superstep cycle
    counts are not defined in this mode (the list holds the single
    makespan).

    ``recorder`` (see :mod:`repro.obs`) observes the underlying deliveries;
    in barrier mode each superstep becomes one recorder *phase* (per-phase
    cycle counters restart, so samples are keyed ``(phase, cycle)``).

    ``router`` selects the next-hop policy (see
    :mod:`repro.simulate.routing`); the one network — and hence the
    adaptive router's load estimates — persists across supersteps, so
    congestion learned in one wave steers the next.

    ``faults`` / ``ttl`` switch the underlying deliveries into
    fault-tolerant mode (see :mod:`repro.simulate.faults`): the schedule's
    events fire at *global* cycle boundaries while messages are in flight
    (in barrier mode the global clock accumulates across supersteps), and
    the return value becomes a :class:`~repro.simulate.faults.DegradedResult`
    wrapping the :class:`ExecutionStats` with a
    :class:`~repro.simulate.faults.FaultReport` — undeliverable messages
    land in the report's ``failed`` map instead of raising or hanging.

    ``engine`` selects the delivery engine (see
    :data:`repro.simulate.engine.ENGINES`): the default ``"auto"``
    dispatches each superstep to the vectorised kernel when its
    preconditions hold and the classic loop otherwise.
    """
    if program.tree is not embedding.guest and program.tree.parent_array != embedding.guest.parent_array:
        raise ValueError("program and embedding use different guest trees")
    network = SynchronousNetwork(
        embedding.host, link_capacity=link_capacity, router=router, engine=engine
    )
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    observing = recorder is not None and recorder.enabled
    fault_mode = faults is not None or ttl is not None
    report = FaultReport()
    if barrier:
        per_step: list[int] = []
        max_traffic = 0
        max_queue = 0
        msg_id = 0
        base = 0  # global cycle count: fault-schedule cycles span supersteps
        with span("simulate.on_host", program=program.name, host=host_name, mode="bsp"):
            for k, step in enumerate(program.supersteps):
                messages = []
                for src, dst in step:
                    messages.append(Message(msg_id, embedding.phi[src], embedding.phi[dst]))
                    msg_id += 1
                if observing:
                    recorder.begin_phase(f"{program.name}[{k}]")
                stats = network.deliver_scheduled(
                    [(0, m) for m in messages],
                    recorder=recorder, faults=faults, ttl=ttl, fault_offset=base,
                )
                base += stats.cycles
                per_step.append(stats.cycles)
                max_traffic = max(max_traffic, stats.max_link_traffic)
                max_queue = max(max_queue, stats.max_queue)
                if fault_mode:
                    _fold_report(report, stats)
        result = ExecutionStats(
            program=program.name,
            host_name=host_name,
            n_supersteps=program.n_supersteps,
            n_messages=program.n_messages,
            total_cycles=sum(per_step),
            ideal_cycles=program.ideal_cycles(),
            per_superstep_cycles=per_step,
            max_link_traffic=max_traffic,
            max_queue=max_queue,
        )
        return DegradedResult(result, report) if fault_mode else result
    schedule = []
    msg_id = 0
    for k, step in enumerate(program.supersteps):
        for src, dst in step:
            schedule.append((k, Message(msg_id, embedding.phi[src], embedding.phi[dst])))
            msg_id += 1
    if observing:
        recorder.begin_phase(f"{program.name}[pipelined]")
    with span("simulate.on_host", program=program.name, host=host_name, mode="pipelined"):
        stats = network.deliver_scheduled(schedule, recorder=recorder, faults=faults, ttl=ttl)
    result = ExecutionStats(
        program=program.name,
        host_name=host_name,
        n_supersteps=program.n_supersteps,
        n_messages=program.n_messages,
        total_cycles=stats.cycles,
        ideal_cycles=program.ideal_cycles(),
        per_superstep_cycles=[stats.cycles],
        max_link_traffic=stats.max_link_traffic,
        max_queue=stats.max_queue,
    )
    if fault_mode:
        _fold_report(report, stats)
        return DegradedResult(result, report)
    return result


def simulate_on_guest(
    program: TreeProgram,
    *,
    link_capacity: int = 1,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    engine: str = "auto",
) -> ExecutionStats:
    """Execute the program on the guest tree itself (the reference machine).

    Uses the tree as its own host network via the identity embedding; for
    the edge-confined workloads this reproduces ``ideal_cycles`` exactly and
    for routed workloads (leaf gossip) it gives the honest baseline.
    """
    from ..networks.base import Topology

    class _TreeNet(Topology):
        name = "guest-tree"

        def __init__(self, tree):
            self.tree = tree

        @property
        def n_nodes(self):
            return self.tree.n

        def nodes(self):
            return iter(range(self.tree.n))

        def neighbors(self, node):
            return self.tree.neighbors(node)

        def index(self, node):
            if not 0 <= node < self.tree.n:
                raise ValueError(f"{node} not a guest node")
            return node

        def node_at(self, idx):
            if not 0 <= idx < self.tree.n:
                raise IndexError(idx)
            return idx

    host = _TreeNet(program.tree)
    identity = Embedding(program.tree, host, {v: v for v in program.tree.nodes()})
    return simulate_on_host(
        program,
        identity,
        link_capacity=link_capacity,
        recorder=recorder,
        router=router,
        engine=engine,
    )
