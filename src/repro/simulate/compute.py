"""Functional tree computations through the simulator.

The rest of :mod:`repro.simulate` counts cycles; this module checks that
the simulated machine actually *computes*: messages carry payloads, host
processors multiplex their (up to 16) resident guest nodes, and the result
of the distributed computation is compared against the direct sequential
answer.

* :func:`simulated_reduction` — leaves-to-root combine with an arbitrary
  associative-commutative operator (default: sum).  Each guest node's value
  is combined with its children's results exactly when the reduction
  program's superstep schedule says the child messages arrive.
* :func:`simulated_prefix` — Blelloch-style exclusive scan along root-to-
  node paths (up-sweep + down-sweep), verified against a direct traversal.

Both run entirely through :class:`SynchronousNetwork` deliveries, so a
routing or scheduling bug would corrupt the numeric answer, not just the
cycle counts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from ..core.embedding import Embedding
from ..obs import Recorder, span
from .engine import Message, SynchronousNetwork
from .faults import DegradedResult, FaultReport, FaultSchedule
from .mapping import _fold_report
from .programs import broadcast_program, reduction_program
from .routing import Router

__all__ = ["simulated_reduction", "simulated_prefix"]


def _check_values(embedding: Embedding, values: Sequence[Any]) -> None:
    if len(values) != embedding.guest.n:
        raise ValueError(
            f"need one value per guest node: {embedding.guest.n} != {len(values)}"
        )


def simulated_reduction(
    embedding: Embedding,
    values: Sequence[Any],
    combine: Callable[[Any, Any], Any] = lambda a, b: a + b,
    *,
    link_capacity: int = 1,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    faults: FaultSchedule | None = None,
    ttl: int | None = None,
    engine: str = "auto",
) -> tuple[Any, int] | DegradedResult:
    """Run a leaves-to-root reduction on the host; return (result, cycles).

    Superstep ``k`` sends, for every height-``k`` guest node, its combined
    subtree value to its parent's host image; the parent folds arrivals in.
    The final value at the root equals the sequential fold over the whole
    tree (tested in ``tests/test_compute.py``).

    ``recorder`` observes the underlying deliveries exactly like
    :func:`~repro.simulate.mapping.simulate_on_host` does — one recorder
    phase per superstep — so payload-carrying runs show up in traces and
    ``--metrics`` too; ``router`` selects the next-hop policy.

    ``faults`` / ``ttl`` enable fault-tolerant mode: the schedule's cycles
    are global across supersteps, lost messages simply never fold into
    their parent's accumulator, and the return value becomes a
    :class:`~repro.simulate.faults.DegradedResult` wrapping the
    ``(partial_result, cycles)`` tuple — its report keys failures by
    ``(superstep, msg_id)`` because message ids restart each superstep.
    """
    tree = embedding.guest
    _check_values(embedding, values)
    network = SynchronousNetwork(
        embedding.host, link_capacity=link_capacity, router=router, engine=engine
    )
    observing = recorder is not None and recorder.enabled
    fault_mode = faults is not None or ttl is not None
    report = FaultReport()
    acc: list[Any] = list(values)
    total_cycles = 0
    program = reduction_program(tree)
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    with span("simulate.reduction", host=host_name, n=tree.n):
        for k, step in enumerate(program.supersteps):
            messages = []
            payloads = {}
            for mid, (src, dst) in enumerate(step):
                messages.append(Message(mid, embedding.phi[src], embedding.phi[dst]))
                payloads[mid] = (dst, acc[src])
            if observing:
                recorder.begin_phase(f"{program.name}[{k}]")
            stats = network.deliver_scheduled(
                [(0, m) for m in messages],
                recorder=recorder, faults=faults, ttl=ttl, fault_offset=total_cycles,
            )
            if fault_mode:
                _fold_report(report, stats, key=lambda mid, k=k: (k, mid))
            total_cycles += stats.cycles
            # arrivals fold into the parent's accumulator (order-independent
            # because the operator is associative-commutative)
            for mid in stats.delivery_cycle:
                dst, value = payloads[mid]
                acc[dst] = combine(acc[dst], value)
    if fault_mode:
        return DegradedResult((acc[tree.root], total_cycles), report)
    return acc[tree.root], total_cycles


def simulated_prefix(
    embedding: Embedding,
    values: Sequence[Any],
    combine: Callable[[Any, Any], Any] = lambda a, b: a + b,
    identity: Any = 0,
    *,
    link_capacity: int = 1,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    faults: FaultSchedule | None = None,
    ttl: int | None = None,
    engine: str = "auto",
) -> tuple[list[Any], int] | DegradedResult:
    """Exclusive scan along root-to-node paths, computed distributedly.

    Result ``out[v]`` is the fold of the values on the path from the root
    down to (excluding) ``v`` — the tree analogue of an exclusive prefix
    sum.  Computed by a broadcast down-sweep whose payloads accumulate the
    path prefix; verified against a direct traversal in the tests.

    ``recorder`` / ``router`` thread through to the network exactly as in
    :func:`simulated_reduction` (one recorder phase per superstep), and so
    do ``faults`` / ``ttl`` — with faults the return value is a
    :class:`~repro.simulate.faults.DegradedResult` wrapping
    ``(partial_out, cycles)``, failures keyed ``(superstep, msg_id)``.
    """
    tree = embedding.guest
    _check_values(embedding, values)
    network = SynchronousNetwork(
        embedding.host, link_capacity=link_capacity, router=router, engine=engine
    )
    observing = recorder is not None and recorder.enabled
    fault_mode = faults is not None or ttl is not None
    report = FaultReport()
    out: list[Any] = [identity] * tree.n
    total_cycles = 0
    program = broadcast_program(tree)
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    with span("simulate.prefix", host=host_name, n=tree.n):
        for k, step in enumerate(program.supersteps):
            messages = []
            payloads = {}
            for mid, (src, dst) in enumerate(step):
                messages.append(Message(mid, embedding.phi[src], embedding.phi[dst]))
                payloads[mid] = (dst, combine(out[src], values[src]))
            if observing:
                recorder.begin_phase(f"{program.name}[{k}]")
            stats = network.deliver_scheduled(
                [(0, m) for m in messages],
                recorder=recorder, faults=faults, ttl=ttl, fault_offset=total_cycles,
            )
            if fault_mode:
                _fold_report(report, stats, key=lambda mid, k=k: (k, mid))
            total_cycles += stats.cycles
            for mid in stats.delivery_cycle:
                dst, value = payloads[mid]
                out[dst] = value
    if fault_mode:
        return DegradedResult((out, total_cycles), report)
    return out, total_cycles
