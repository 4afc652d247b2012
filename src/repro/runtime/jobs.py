"""Job specifications and live job state for the multi-tenant runtime.

A :class:`JobSpec` is fully declarative — a guest tree recipe, a program
name, an embedding shape, and scheduling attributes — so it JSON
round-trips and a checkpoint can rebuild the job deterministically.  A
:class:`Job` is the spec *instantiated*: the generated tree, the Theorem 1
embedding (which online repair replaces), the program built
on the embedding's (padded) guest, and every execution counter the
scheduler and the checkpoint need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .._util import node_from_json
from ..core.embedding import Embedding
from ..core.universal import lift_onto_slots
from ..core.xtree_embed import embed_binary_tree
from ..networks.universal import UNIVERSAL_SLOTS, UniversalGraph
from ..simulate.programs import PROGRAMS
from ..trees import make_tree

__all__ = ["JobSpec", "Job", "JOB_STATUSES"]

#: lifecycle states: ``active`` jobs are schedulable; terminal states are
#: ``done`` (every superstep ran), ``budget_exhausted`` (the per-job cycle
#: budget ran out first) — both keep their partial results
JOB_STATUSES = ("active", "done", "budget_exhausted")


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one guest workload.

    ``tree_family`` / ``tree_n`` / ``tree_seed`` feed
    :func:`repro.trees.make_tree`; ``program`` names a
    :data:`~repro.simulate.programs.PROGRAMS` factory and
    ``program_args`` its extra keyword arguments.  ``height`` /
    ``capacity`` shape the :func:`~repro.core.xtree_embed.embed_binary_tree`
    call — ``capacity`` is this job's *own* share of the paper's load-16
    bound, which is what makes multi-tenancy sound: two capacity-8 jobs
    fill a host node to exactly 16 (see
    :meth:`repro.runtime.Runtime.admit`).

    ``priority`` weights the fair-share scheduler; ``ttl`` bounds each
    message's cycles in flight (fault mode); ``cycle_budget`` caps the
    host cycles the job may consume before it is terminated.
    """

    name: str
    program: str
    tree_n: int
    tree_family: str = "random"
    tree_seed: int = 0
    program_args: dict[str, Any] = field(default_factory=dict)
    height: int | None = None
    capacity: int = 16
    priority: int = 1
    ttl: int | None = None
    cycle_budget: int | None = None

    def __post_init__(self) -> None:
        if self.program not in PROGRAMS:
            raise ValueError(
                f"unknown program {self.program!r}: expected one of {sorted(PROGRAMS)}"
            )
        if self.priority < 1:
            raise ValueError(f"priority must be >= 1, got {self.priority}")
        if self.cycle_budget is not None and self.cycle_budget < 1:
            raise ValueError(f"cycle_budget must be >= 1, got {self.cycle_budget}")

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "program": self.program,
            "tree_n": self.tree_n,
            "tree_family": self.tree_family,
            "tree_seed": self.tree_seed,
        }
        if self.program_args:
            d["program_args"] = dict(self.program_args)
        for opt in ("height", "ttl", "cycle_budget"):
            if getattr(self, opt) is not None:
                d[opt] = getattr(self, opt)
        if self.capacity != 16:
            d["capacity"] = self.capacity
        if self.priority != 1:
            d["priority"] = self.priority
        return d

    @classmethod
    def from_obj(cls, obj: dict) -> "JobSpec":
        known = {
            "name", "program", "tree_n", "tree_family", "tree_seed",
            "program_args", "height", "capacity", "priority", "ttl",
            "cycle_budget",
        }
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        return cls(**obj)


class Job:
    """One admitted workload: spec + embedding + program + live counters.

    Message keys are job-local integer ids, unique across the job's whole
    run (the counter never resets between supersteps), so ``delivered``
    and ``failed`` stay unambiguous through repairs and migrations.
    Delivery cycles are recorded on the *global* runtime clock.
    """

    def __init__(self, spec: JobSpec, host, *, embedding=None, program=None) -> None:
        self.spec = spec
        if embedding is None:
            tree = make_tree(spec.tree_family, spec.tree_n, seed=spec.tree_seed)
            if isinstance(host, UniversalGraph):
                # Theorem 4 host: embed into the underlying X(t-5) with
                # Theorem 1, then fan the per-vertex load out onto the 16
                # slots — one guest per G_n vertex (load 1 by construction)
                if spec.height not in (None, host.height):
                    raise ValueError(
                        f"job {spec.name!r} requests height {spec.height} but "
                        f"the universal host quotients through X({host.height})"
                    )
                if spec.capacity > UNIVERSAL_SLOTS:
                    raise ValueError(
                        f"capacity {spec.capacity} exceeds the universal "
                        f"host's {UNIVERSAL_SLOTS} slots per X-tree vertex"
                    )
                result = embed_binary_tree(
                    tree, height=host.height, capacity=spec.capacity
                )
                embedding = lift_onto_slots(result.embedding, host)
            else:
                embedding = embed_binary_tree(
                    tree, height=spec.height, capacity=spec.capacity
                ).embedding
        # ``embedding``/``program`` short-circuit the construction when the
        # caller already holds the spec's Theorem 1 embedding and program
        # (repeat-timing benchmarks; they must match what the spec builds)
        self.embedding = embedding
        if self.embedding.host.name != host.name or (
            self.embedding.host.n_nodes != host.n_nodes
        ):
            raise ValueError(
                f"job {spec.name!r} embeds into "
                f"{self.embedding.host.name} ({self.embedding.host.n_nodes} nodes) "
                f"but the runtime hosts {host.name} ({host.n_nodes} nodes); "
                "set JobSpec.height to the runtime host's height"
            )
        # re-anchor on the shared host instance so repairs and routing act
        # on the runtime's network, not a private twin
        if self.embedding.host is not host:
            self.embedding = Embedding(self.embedding.guest, host, self.embedding.phi)
        self.program = program if program is not None else PROGRAMS[spec.program](
            self.embedding.guest, **spec.program_args
        )
        self.status = "active"
        self.next_step = 0
        self.msg_seq = 0
        self.consumed_cycles = 0
        #: fair-share virtual time, accrued *incrementally* by the runtime:
        #: each superstep charges ``cycles / fair_weight()`` at the weight
        #: the superstep started with, so the accumulator is monotone and a
        #: draining backlog can never retroactively re-price history
        self.virtual_time = 0.0
        self.per_step_cycles: list[int] = []
        #: job-local msg id -> global delivery cycle
        self.delivered: dict[int, int] = {}
        #: job-local msg id -> drop reason ("ttl" / "partitioned" / "budget")
        self.failed: dict[int, str] = {}
        #: job-local msg id -> (guest src, guest dst, superstep) for every
        #: message ever injected — what migration needs to re-send
        self.endpoints: dict[int, tuple[int, int, int]] = {}
        self.n_reroutes = 0
        self.n_repairs = 0
        self.n_migrated = 0
        #: corrupted arrivals of this job's messages caught by the
        #: end-to-end checksum, and the retransmissions they (plus flaky
        #: drops) triggered — wrong-data-detected accounting, distinct
        #: from the fail-stop ``failed`` reasons
        self.n_corrupted = 0
        self.n_retransmits = 0

    # -- scheduling signals --------------------------------------------
    @property
    def total_messages(self) -> int:
        return self.program.n_messages

    @property
    def backlog(self) -> int:
        """Messages not yet delivered or failed — the queued work the
        fair-share policy weights by (drained by engine feedback: every
        superstep's :class:`~repro.simulate.engine.DeliveryStats` moves
        its messages into ``delivered`` / ``failed``)."""
        return self.total_messages - len(self.delivered) - len(self.failed)

    @property
    def remaining_steps(self) -> int:
        return self.program.n_supersteps - self.next_step

    def fair_weight(self) -> int:
        """The fair-share weight *right now*: ``priority * max(1, backlog)``.

        The runtime snapshots this before running a superstep and charges
        the superstep's cycles against it, so each slice of history is
        priced at the weight it actually ran under.
        """
        return self.spec.priority * max(1, self.backlog)

    def over_budget(self) -> bool:
        return (
            self.spec.cycle_budget is not None
            and self.consumed_cycles >= self.spec.cycle_budget
        )

    # -- checkpointing --------------------------------------------------
    def state(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "phi": self.embedding.phi_json(),
            "status": self.status,
            "next_step": self.next_step,
            "msg_seq": self.msg_seq,
            "consumed_cycles": self.consumed_cycles,
            "virtual_time": self.virtual_time,
            "per_step_cycles": list(self.per_step_cycles),
            "delivered": [[m, c] for m, c in sorted(self.delivered.items())],
            "failed": [[m, r] for m, r in sorted(self.failed.items())],
            "endpoints": [
                [m, s, d, k] for m, (s, d, k) in sorted(self.endpoints.items())
            ],
            "n_reroutes": self.n_reroutes,
            "n_repairs": self.n_repairs,
            "n_migrated": self.n_migrated,
            "n_corrupted": self.n_corrupted,
            "n_retransmits": self.n_retransmits,
        }

    @classmethod
    def from_state(cls, state: dict, host) -> "Job":
        job = cls(JobSpec.from_obj(state["spec"]), host)
        phi = {g: node_from_json(h) for g, h in state["phi"]}
        job.embedding = Embedding(job.embedding.guest, host, phi)
        job.status = state["status"]
        job.next_step = state["next_step"]
        job.msg_seq = state["msg_seq"]
        job.consumed_cycles = state["consumed_cycles"]
        # float round-trips JSON exactly (repr), so restored picks are
        # bit-identical; .get() keeps pre-virtual-time checkpoints readable
        job.virtual_time = state.get("virtual_time", 0.0)
        job.per_step_cycles = list(state["per_step_cycles"])
        job.delivered = {m: c for m, c in state["delivered"]}
        job.failed = {m: r for m, r in state["failed"]}
        job.endpoints = {m: (s, d, k) for m, s, d, k in state["endpoints"]}
        job.n_reroutes = state["n_reroutes"]
        job.n_repairs = state["n_repairs"]
        job.n_migrated = state["n_migrated"]
        # .get() keeps pre-integrity-protocol checkpoints readable
        job.n_corrupted = state.get("n_corrupted", 0)
        job.n_retransmits = state.get("n_retransmits", 0)
        return job

    # -- reporting ------------------------------------------------------
    def report(self) -> dict:
        """Stable summary of this job's outcome (bit-identity checks
        compare these across checkpoint/restore).

        The per-message maps keep their int keys here: a report is an
        in-process structure, and stringifying thousands of message ids
        costs real milliseconds (the single-job overhead gate in
        ``bench_runtime`` times exactly this path).  The *canonical wire
        form* — string keys, numerically sorted, JSON-round-trip-stable —
        is produced exactly once, at the serialisation boundary, by
        :meth:`repro.runtime.RuntimeResult.as_dict`.
        """
        return {
            "name": self.spec.name,
            "status": self.status,
            "supersteps_run": self.next_step,
            "n_supersteps": self.program.n_supersteps,
            "consumed_cycles": self.consumed_cycles,
            "virtual_time": self.virtual_time,
            "per_step_cycles": list(self.per_step_cycles),
            "n_messages": self.total_messages,
            "n_delivered": len(self.delivered),
            # plain copies: dict equality (the bit-identity check) ignores
            # insertion order, so no sort is needed here
            "delivered": dict(self.delivered),
            "failed": dict(self.failed),
            "n_reroutes": self.n_reroutes,
            "n_repairs": self.n_repairs,
            "n_migrated": self.n_migrated,
            "n_corrupted": self.n_corrupted,
            "n_retransmits": self.n_retransmits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.spec.name!r}, {self.spec.program}, "
            f"step {self.next_step}/{self.program.n_supersteps}, {self.status})"
        )
