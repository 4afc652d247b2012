"""What a delivery carries and reports, below the engines and routers.

The reference loop, the vector kernel and the routers all build or raise
these; :mod:`repro.simulate.engine` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

    from .faults import FaultEvent

__all__ = ["Message", "ArraySchedule", "DeliveryStats", "UnreachableError", "Node"]

Node = Hashable


class UnreachableError(RuntimeError):
    """A message destination is disconnected from its source (failed links)."""


@dataclass(frozen=True)
class Message:
    """A point-to-point message between two host nodes."""

    msg_id: int
    src: Node
    dst: Node
    payload: Any = None


class ArraySchedule(NamedTuple):
    """A schedule as four parallel int64 arrays, one entry per message.

    Message ``msg_id[i]`` goes from host node index ``src[i]`` to ``dst[i]``
    (indices in ``topology.nodes()`` order) and is injected after cycle
    ``inject[i]``: the array form of ``(inject, Message)`` pairs that
    :meth:`~repro.simulate.engine.SynchronousNetwork.deliver_scheduled`
    accepts beside the list, with the same validation and the same stats.
    """

    inject: np.ndarray
    msg_id: np.ndarray
    src: np.ndarray
    dst: np.ndarray


@dataclass
class DeliveryStats:
    """Outcome of one synchronous delivery phase."""

    cycles: int
    n_messages: int
    #: per-message delivery cycle: a routed message records the cycle its
    #: last hop arrives (>= 1); a self-message (src == dst) is delivered
    #: free at its *injection* cycle — 0 for :meth:`deliver`, the scheduled
    #: cycle ``k`` for :meth:`deliver_scheduled`
    delivery_cycle: dict[int, int] = field(default_factory=dict)
    #: traffic per directed link over the whole phase
    link_traffic: dict[tuple[Node, Node], int] = field(default_factory=dict)
    max_queue: int = 0
    #: messages dropped instead of delivered, ``msg_id -> reason`` — the
    #: reason is ``"ttl"`` (hop/cycle budget exhausted) or ``"partitioned"``
    #: (destination unreachable with no heal event left to reconnect it);
    #: only ever populated in fault-tolerant deliveries (``faults``/``ttl``)
    failed: dict[int, str] = field(default_factory=dict)
    #: queued messages whose planned next hop died under them (they stayed
    #: at their sender and re-routed against the updated tables)
    n_reroutes: int = 0
    #: fault-schedule events this delivery actually applied, in order
    faults_applied: list[FaultEvent] = field(default_factory=list)
    #: corrupted arrivals caught by the end-to-end checksum; each triggers
    #: a retransmit from source, or an ``"integrity"`` failure once retries
    #: exhaust (byzantine mode only — see ``corrupt_link``)
    n_corrupted: int = 0
    #: retransmissions the integrity protocol scheduled (corrupt arrivals
    #: plus flaky-link in-transit drops)
    n_retransmits: int = 0
    #: links quarantined out of the route set by the corruption EWMA
    n_quarantined: int = 0
    #: corrupted deliveries the checksum FAILED to catch (a CRC collision)
    #: — ground truth only the simulator can see; benchmarks gate this at 0
    n_silent_corruptions: int = 0

    @property
    def max_link_traffic(self) -> int:
        return max(self.link_traffic.values(), default=0)

    @property
    def complete(self) -> bool:
        """True when no message was dropped (all delivered)."""
        return not self.failed
