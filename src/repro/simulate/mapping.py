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
from itertools import chain

import numpy as np

from ..core.embedding import Embedding
from ..networks.base import Topology
from ..obs import Recorder, span
from .engine import ArraySchedule, DeliveryStats, Message, SynchronousNetwork
from .faults import DegradedResult, FaultReport, FaultSchedule
from .programs import TreeProgram
from .routing import Router

__all__ = ["ExecutionStats", "deliver_superstep", "simulate_on_host", "simulate_on_guest"]

#: supersteps of at least this many messages reach the engine as an
#: :class:`ArraySchedule`, smaller ones as a ``Message`` list: below it the
#: arrays' fixed cost (a few dozen NumPy calls) outweighs the per-message
#: Python work they save (docs/ALGORITHM.md section 10 has the sweep)
ARRAY_MIN_MESSAGES = 32


def _fold_report(report: FaultReport, stats: DeliveryStats, superstep=None) -> None:
    """Accumulate one delivery's fault outcome into a run-level report,
    keying failures ``(superstep, msg_id)`` when ``superstep`` is given."""
    report.n_messages += stats.n_messages
    report.n_delivered += len(stats.delivery_cycle)
    report.applied = (*report.applied, *stats.faults_applied)
    report.n_reroutes += stats.n_reroutes
    report.n_corrupted += stats.n_corrupted
    report.n_retransmits += stats.n_retransmits
    report.n_quarantined += stats.n_quarantined
    for mid, reason in stats.failed.items():
        report.failed[mid if superstep is None else (superstep, mid)] = reason


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


def deliver_superstep(
    network: SynchronousNetwork, pairs, embedding: Embedding, ids, phase: str, *,
    recorder: Recorder | None = None, faults: FaultSchedule | None = None,
    ttl: int | None = None, fault_offset: int = 0,
) -> DeliveryStats:
    """Deliver one guest superstep through ``embedding``.

    Message ``ids[i]`` carries the guest pair ``pairs[i] = (src, dst)``
    from host ``phi[src]`` to host ``phi[dst]``.  All are injected at cycle
    0 of one ``network.deliver_scheduled`` call, whose fault schedule runs
    at global cycle ``fault_offset``, after a listening ``recorder`` opens
    ``phase``.  :func:`simulate_on_host`'s barrier mode, the compute folds
    and the runtime's supersteps and migrations all deliver through it.

    A superstep of at least :data:`ARRAY_MIN_MESSAGES` messages goes as an
    :class:`ArraySchedule` gathered from ``embedding.image_idx``, a smaller
    one as a ``Message`` list; the stats are the same either way.  A guest
    node outside ``embedding.guest`` raises :class:`ValueError`.
    """
    if recorder is not None:
        recorder.begin_phase(phase)
    m = len(pairs)
    if m < ARRAY_MIN_MESSAGES:
        phi = embedding.phi
        try:
            schedule = [
                (0, Message(mid, phi[src], phi[dst])) for mid, (src, dst) in zip(ids, pairs)
            ]
        except KeyError as exc:
            raise ValueError(f"guest node {exc.args[0]!r} is not in the embedding") from None
    else:
        guests = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * m)
        image = embedding.image_idx
        if guests.min() < 0 or guests.max() >= image.size:
            bad = guests[(guests < 0) | (guests >= image.size)][0]
            raise ValueError(f"guest node {int(bad)} is not in the embedding")
        hosts = image[guests]
        if isinstance(ids, range):
            ids = np.arange(ids.start, ids.stop, ids.step, dtype=np.int64)
        schedule = ArraySchedule(
            np.zeros(m, dtype=np.int64), np.asarray(ids, dtype=np.int64), hosts[0::2], hosts[1::2]
        )
    return network.deliver_scheduled(
        schedule, recorder=recorder, faults=faults, ttl=ttl, fault_offset=fault_offset
    )


def _barrier_supersteps(network, program, embedding, report, *, restart_ids=False, **deliver):
    """Deliver ``program`` one barrier superstep at a time, yielding each
    superstep's guest pairs and :class:`DeliveryStats`.

    Superstep ``k`` is recorder phase ``"<program>[k]"`` and starts at the
    global cycle where superstep ``k - 1`` ended, so one fault schedule
    spans the program.  Message ids run on across supersteps, or restart at
    0 in each with ``restart_ids``; then ``report`` (fault mode only) keys
    failures ``(k, msg_id)``.  ``deliver`` is ``recorder``/``faults``/``ttl``.
    """
    base = first = 0
    for k, pairs in enumerate(program.supersteps):
        first = 0 if restart_ids else first
        ids = range(first, first + len(pairs))
        stats = deliver_superstep(
            network, pairs, embedding, ids, f"{program.name}[{k}]", fault_offset=base, **deliver
        )
        first += len(pairs)
        base += stats.cycles
        if report is not None:
            _fold_report(report, stats, k if restart_ids else None)
        yield pairs, stats


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
    """
    if program.tree is not embedding.guest and program.tree.parent_array != embedding.guest.parent_array:
        raise ValueError("program and embedding use different guest trees")
    network = SynchronousNetwork(embedding.host, link_capacity=link_capacity, router=router)
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    report = FaultReport() if faults is not None or ttl is not None else None
    if barrier:
        with span("simulate.on_host", program=program.name, host=host_name, mode="bsp"):
            steps = [
                (stats.cycles, stats.max_link_traffic, stats.max_queue)
                for _pairs, stats in _barrier_supersteps(
                    network, program, embedding, report,
                    recorder=recorder, faults=faults, ttl=ttl,
                )
            ]
    else:
        phi = embedding.phi
        sends = [(k, pair) for k, step in enumerate(program.supersteps) for pair in step]
        schedule = [
            (k, Message(mid, phi[src], phi[dst])) for mid, (k, (src, dst)) in enumerate(sends)
        ]
        if recorder is not None:
            recorder.begin_phase(f"{program.name}[pipelined]")
        with span("simulate.on_host", program=program.name, host=host_name, mode="pipelined"):
            stats = network.deliver_scheduled(schedule, recorder=recorder, faults=faults, ttl=ttl)
        if report is not None:
            _fold_report(report, stats)
        steps = [(stats.cycles, stats.max_link_traffic, stats.max_queue)]
    per_step = [cycles for cycles, _, _ in steps]
    result = ExecutionStats(
        program=program.name,
        host_name=host_name,
        n_supersteps=program.n_supersteps,
        n_messages=program.n_messages,
        total_cycles=sum(per_step),
        ideal_cycles=program.ideal_cycles(),
        per_superstep_cycles=per_step,
        max_link_traffic=max((traffic for _, traffic, _ in steps), default=0),
        max_queue=max((queue for _, _, queue in steps), default=0),
    )
    return result if report is None else DegradedResult(result, report)


def simulate_on_guest(
    program: TreeProgram,
    *,
    link_capacity: int = 1,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
) -> ExecutionStats:
    """Execute the program on the guest tree itself (the reference machine).

    Uses the tree as its own host network via the identity embedding; for
    the edge-confined workloads this reproduces ``ideal_cycles`` exactly and
    for routed workloads (leaf gossip) it gives the honest baseline.
    """

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
    )
