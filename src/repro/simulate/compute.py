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
from .engine import SynchronousNetwork
from .faults import DegradedResult, FaultReport, FaultSchedule
from .mapping import _barrier_supersteps
from .programs import broadcast_program, reduction_program
from .routing import Router

__all__ = ["simulated_reduction", "simulated_prefix"]


def _check_values(embedding: Embedding, values: Sequence[Any]) -> None:
    if len(values) != embedding.guest.n:
        raise ValueError(
            f"need one value per guest node: {embedding.guest.n} != {len(values)}"
        )


def _run_folding(
    embedding, program, fold, span_name, *, link_capacity, recorder, router, faults, ttl
):
    """Run ``program``'s barrier supersteps on the host, call ``fold(src,
    dst)`` for each delivered message after its superstep, in message-id
    order, and return the cycles and the fault report (``None`` without
    ``faults``/``ttl``).

    Folding after the superstep, from the sender's state then, equals
    sending a snapshot of it because no node receives in a superstep it
    sends in: a reduction sends to strictly higher nodes and a broadcast
    to strictly deeper ones.
    """
    network = SynchronousNetwork(embedding.host, link_capacity=link_capacity, router=router)
    report = FaultReport() if faults is not None or ttl is not None else None
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    cycles = 0
    with span(span_name, host=host_name, n=embedding.guest.n):
        for pairs, stats in _barrier_supersteps(
            network, program, embedding, report,
            restart_ids=True, recorder=recorder, faults=faults, ttl=ttl,
        ):
            cycles += stats.cycles
            # in message-id order (the ids restart at 0 per superstep), which
            # no engine's delivery order can change; a failed id never folds
            delivered = stats.delivery_cycle
            for mid, pair in enumerate(pairs):
                if mid in delivered:
                    fold(*pair)
    return cycles, report


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
) -> tuple[Any, int] | DegradedResult:
    """Run a leaves-to-root reduction on the host; return (result, cycles).

    Superstep ``k`` sends, for every height-``k`` guest node, its combined
    subtree value to its parent's host image; the parent folds arrivals in.
    The final value at the root equals the sequential fold over the whole
    tree (tested in ``tests/test_compute_shuffle.py``).

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
    acc: list[Any] = list(values)

    def fold(src: int, dst: int) -> None:
        # associative-commutative, but a float sum rounds by fold order,
        # which _run_folding fixes to message-id order
        acc[dst] = combine(acc[dst], acc[src])

    cycles, report = _run_folding(
        embedding, reduction_program(tree), fold, "simulate.reduction",
        link_capacity=link_capacity, recorder=recorder, router=router,
        faults=faults, ttl=ttl,
    )
    result = (acc[tree.root], cycles)
    return result if report is None else DegradedResult(result, report)


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
    out: list[Any] = [identity] * tree.n

    def fold(src: int, dst: int) -> None:
        out[dst] = combine(out[src], values[src])

    cycles, report = _run_folding(
        embedding, broadcast_program(tree), fold, "simulate.prefix",
        link_capacity=link_capacity, recorder=recorder, router=router,
        faults=faults, ttl=ttl,
    )
    result = (out, cycles)
    return result if report is None else DegradedResult(result, report)
