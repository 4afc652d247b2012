"""Synchronous network simulation: the parallel-machine substrate.

See DESIGN.md section 5: the paper's processors-and-clock-cycles cost model
is realised here, so that dilation and congestion of an embedding translate
into measured slowdown of real tree programs.
"""

from .compute import simulated_prefix, simulated_reduction
from .engine import (
    INTEGRITY_MAX_RETRIES,
    QUARANTINE_EWMA_DECAY,
    QUARANTINE_PROBE_AFTER,
    QUARANTINE_THRESHOLD,
    RETRANSMIT_BACKOFF_CAP,
    ArraySchedule,
    DeliveryStats,
    Message,
    SynchronousNetwork,
    UnreachableError,
)
from .vector_engine import VECTOR_MAX_NODES, vector_supported
from .faults import (
    BYZANTINE_ACTIONS,
    FAULT_SCHEDULE_VERSION,
    DegradedResult,
    FaultEvent,
    FaultReport,
    FaultSchedule,
    RepairError,
    RepairResult,
    repair_embedding,
)
from .mapping import ExecutionStats, deliver_superstep, simulate_on_guest, simulate_on_host
from .routing import (
    ROUTERS,
    AdaptiveRouter,
    Router,
    ShortestPathRouter,
    TreeRouter,
    make_router,
    router_from_spec,
)
from .programs import (
    PROGRAMS,
    TreeProgram,
    broadcast_program,
    hot_spot_program,
    leaf_gossip_program,
    neighbor_exchange_program,
    permutation_program,
    prefix_sum_program,
    reduction_program,
)

__all__ = [
    "Message",
    "ArraySchedule",
    "DeliveryStats",
    "SynchronousNetwork",
    "UnreachableError",
    "INTEGRITY_MAX_RETRIES",
    "RETRANSMIT_BACKOFF_CAP",
    "QUARANTINE_EWMA_DECAY",
    "QUARANTINE_THRESHOLD",
    "QUARANTINE_PROBE_AFTER",
    "VECTOR_MAX_NODES",
    "vector_supported",
    "FaultEvent",
    "FaultSchedule",
    "FaultReport",
    "BYZANTINE_ACTIONS",
    "FAULT_SCHEDULE_VERSION",
    "DegradedResult",
    "RepairError",
    "RepairResult",
    "repair_embedding",
    "Router",
    "ShortestPathRouter",
    "AdaptiveRouter",
    "TreeRouter",
    "ROUTERS",
    "make_router",
    "router_from_spec",
    "TreeProgram",
    "PROGRAMS",
    "reduction_program",
    "broadcast_program",
    "prefix_sum_program",
    "neighbor_exchange_program",
    "leaf_gossip_program",
    "hot_spot_program",
    "permutation_program",
    "ExecutionStats",
    "deliver_superstep",
    "simulate_on_host",
    "simulate_on_guest",
]
