"""Job specifications and live job state for the multi-tenant runtime.

A :class:`JobSpec` is fully declarative — a guest tree recipe, a program
name, an embedding shape, and scheduling attributes — so it JSON
round-trips.  A :class:`Job` is the spec *instantiated*: the Theorem 1
embedding of the generated tree (which online repair replaces), the
program built on the embedding's (padded) guest, and every execution
counter the scheduler and the checkpoint need.

There is one way to build a job's parts and one way back.
:meth:`Job.build` runs the construction for a new job; a checkpoint
stores what it produced, so :meth:`Job.from_state` regenerates the
guest, pads it to the stored placement's size and reads the placement
back without running Theorem 1 again.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Any

from .._util import (
    check_items,
    check_object,
    check_rows,
    is_int,
    is_number,
    node_from_json,
)
from ..core.embedding import Embedding
from ..core.universal import lift_onto_slots
from ..core.xtree_embed import embed_binary_tree
from ..networks.universal import UNIVERSAL_SLOTS, UniversalGraph
from ..simulate.programs import PROGRAMS
from ..trees import FAMILIES, make_tree

__all__ = ["JobSpec", "Job", "JOB_STATUSES"]

#: lifecycle states: ``active`` jobs are schedulable; terminal states are
#: ``done`` (every superstep ran), ``budget_exhausted`` (the per-job cycle
#: budget ran out first) — both keep their partial results
JOB_STATUSES = ("active", "done", "budget_exhausted")

#: integer fields >= 0 of a job's checkpoint state; the last two are absent
#: from checkpoints that predate the integrity protocol
_COUNTS = (
    "msg_seq", "consumed_cycles", "n_reroutes", "n_repairs", "n_migrated",
    "n_corrupted", "n_retransmits",
)
_COUNT = (lambda x: is_int(x, 0), "an integer >= 0")


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one guest workload.

    ``tree_family`` / ``tree_n`` / ``tree_seed`` feed
    :func:`repro.trees.make_tree`; ``program`` names a
    :data:`~repro.simulate.programs.PROGRAMS` factory and
    ``program_args`` its extra keyword arguments, each an integer the
    factory takes besides the tree.  ``height`` /
    ``capacity`` shape the :func:`~repro.core.xtree_embed.embed_binary_tree`
    call — ``capacity`` is this job's *own* share of the paper's load-16
    bound, which is what makes multi-tenancy sound: two capacity-8 jobs
    fill a host node to exactly 16 (see
    :meth:`repro.runtime.Runtime.admit`).

    ``priority`` weights the fair-share scheduler; ``ttl`` bounds each
    message's cycles in flight (fault mode); ``cycle_budget`` caps the
    host cycles the job may consume before it is terminated.

    Every field is checked for type and range on construction, so an
    ill-typed spec fails with a :class:`ValueError` naming the field
    before any job is built from it.
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
        for name, value, registry in (
            ("program", self.program, PROGRAMS), ("tree_family", self.tree_family, FAMILIES)
        ):
            if not (isinstance(value, str) and value in registry):
                raise ValueError(
                    f"JobSpec.{name}: unknown {name.replace('_', ' ')} {value!r}: "
                    f"expected one of {sorted(registry)}"
                )
        args = self.program_args
        for name, ok, want in (
            ("name", isinstance(self.name, str) and self.name != "", "a non-empty string"),
            ("tree_n", is_int(self.tree_n, 1), "an integer >= 1"),
            ("tree_seed", is_int(self.tree_seed), "an integer"),
            ("program_args", isinstance(args, dict)
             and all(isinstance(k, str) for k in args), "an object"),
            ("height", self.height is None or is_int(self.height, 0),
             "null or an integer >= 0"),
            ("capacity", is_int(self.capacity, 2), "an integer >= 2"),
            ("priority", is_int(self.priority, 1), "an integer >= 1"),
            ("ttl", self.ttl is None or is_int(self.ttl, 1), "null or an integer >= 1"),
            ("cycle_budget", self.cycle_budget is None or is_int(self.cycle_budget, 1),
             "null or an integer >= 1"),
        ):
            if not ok:
                raise ValueError(
                    f"JobSpec.{name} must be {want}, got {getattr(self, name)!r}"
                )
        takes = sorted(set(inspect.signature(PROGRAMS[self.program]).parameters) - {"tree"})
        for key, value in args.items():
            if key not in takes:
                raise ValueError(
                    f"JobSpec.program_args.{key}: program {self.program!r} does not "
                    f"take {key!r}; it takes {takes or 'no arguments'}"
                )
            if not is_int(value):
                raise ValueError(
                    f"JobSpec.program_args.{key} must be an integer, got {value!r}"
                )

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
        """Parse one job spec document; :class:`ValueError` names the
        missing, unknown or ill-typed field."""
        if not isinstance(obj, dict):
            raise ValueError(f"job spec must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        for name in ("name", "program", "tree_n"):
            if name not in obj:
                raise ValueError(f"job spec is missing required field {name!r}")
        return cls(**obj)


class Job:
    """One admitted workload: spec + embedding + program + live counters.

    Message keys are job-local integer ids, unique across the job's whole
    run (the counter never resets between supersteps), so ``delivered``
    and ``failed`` stay unambiguous through repairs and migrations.
    Delivery cycles are recorded on the *global* runtime clock.
    """

    def __init__(self, spec: JobSpec, embedding: Embedding, program) -> None:
        self.spec = spec
        self.embedding = embedding
        self.program = program
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
        self.n_reroutes = 0
        self.n_repairs = 0
        self.n_migrated = 0
        #: corrupted arrivals of this job's messages caught by the
        #: end-to-end checksum, and the retransmissions they (plus flaky
        #: drops) triggered — wrong-data-detected accounting, distinct
        #: from the fail-stop ``failed`` reasons
        self.n_corrupted = 0
        self.n_retransmits = 0

    @classmethod
    def build(cls, spec: JobSpec, host) -> "Job":
        """Instantiate ``spec`` on ``host``: generate the tree, embed it
        with Theorem 1 and build the program on the embedding's guest.

        On the Theorem 4 host the construction runs on the underlying
        X(t-5) and the per-vertex load fans out onto the 16 slots — one
        guest per G_n vertex (load 1 by construction).  The embedding is
        anchored on ``host`` itself, so repairs and routing act on the
        runtime's network, not a private twin.
        """
        tree = make_tree(spec.tree_family, spec.tree_n, seed=spec.tree_seed)
        if isinstance(host, UniversalGraph):
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
            result = embed_binary_tree(tree, height=host.height, capacity=spec.capacity)
            embedding = lift_onto_slots(result.embedding, host)
        else:
            embedding = embed_binary_tree(
                tree, height=spec.height, capacity=spec.capacity
            ).embedding
            if embedding.host.name != host.name or (
                embedding.host.n_nodes != host.n_nodes
            ):
                raise ValueError(
                    f"job {spec.name!r} embeds into "
                    f"{embedding.host.name} ({embedding.host.n_nodes} nodes) "
                    f"but the runtime hosts {host.name} ({host.n_nodes} nodes); "
                    "set JobSpec.height to the runtime host's height"
                )
            embedding = Embedding(embedding.guest, host, embedding.phi)
        program = PROGRAMS[spec.program](embedding.guest, **spec.program_args)
        return cls(spec, embedding, program)

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

    def finish_superstep(self, cycles: int, weight: int) -> None:
        """Close superstep ``next_step``, which cost ``cycles`` (already in
        ``consumed_cycles``), priced at the :meth:`fair_weight` ``weight``
        it started with; then the job may be ``done`` or out of budget."""
        self.virtual_time += cycles / weight
        self.next_step += 1
        self.per_step_cycles.append(self.consumed_cycles)
        if self.next_step >= self.program.n_supersteps:
            self.status = "done"
        elif self.over_budget():
            self.status = "budget_exhausted"

    # -- checkpointing --------------------------------------------------
    def state(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "phi": self.embedding.phi_json(),
            **self._scalars(),
            "per_step_cycles": list(self.per_step_cycles),
            "delivered": [[m, c] for m, c in sorted(self.delivered.items())],
            "failed": [[m, r] for m, r in sorted(self.failed.items())],
        }

    def _scalars(self) -> dict:
        return {
            "status": self.status,
            "next_step": self.next_step,
            "msg_seq": self.msg_seq,
            "consumed_cycles": self.consumed_cycles,
            "virtual_time": self.virtual_time,
            "n_reroutes": self.n_reroutes,
            "n_repairs": self.n_repairs,
            "n_migrated": self.n_migrated,
            "n_corrupted": self.n_corrupted,
            "n_retransmits": self.n_retransmits,
        }

    def cut(self) -> tuple:
        """Where the job's growing state stands, for :meth:`delta`."""
        return (
            len(self.per_step_cycles), len(self.delivered), len(self.failed),
            self.embedding,
        )

    def delta(self, cut: tuple) -> dict:
        """What changed since :meth:`cut` returned ``cut``: the scalars in
        full, the new tails of ``per_step_cycles``, ``delivered`` and
        ``failed``, and ``phi`` only when a repair swapped the embedding.

        Every message's fate is settled inside the superstep that injects
        it, and cuts fall between supersteps, so the ids recorded since a
        cut are the last ones inserted and all exceed the earlier ones:
        sorting the tail alone keeps the concatenation sorted.
        """
        n_steps, n_delivered, n_failed, embedding = cut
        d = self._scalars()
        d["per_step_cycles"] = self.per_step_cycles[n_steps:]
        d["delivered"] = _sorted_tail(self.delivered, n_delivered)
        d["failed"] = _sorted_tail(self.failed, n_failed)
        if self.embedding is not embedding:
            d["phi"] = self.embedding.phi_json()
        return d

    @classmethod
    def from_state(cls, state: dict, host, *, path: str = "job") -> "Job":
        """The job a :meth:`state` dict describes, on ``host``.

        Every field is checked for type and range before it is used; a
        malformed one raises :class:`ValueError` whose message starts with
        its path under ``path``, e.g. ``checkpoint.jobs[0].next_step must
        be an integer in [0, 1] (2 supersteps, job active), got 7``.
        """
        check_object(state, path, (
            "spec", "phi", "status", "next_step", *_COUNTS[:5],
            "per_step_cycles", "delivered", "failed",
        ))
        try:
            spec = JobSpec.from_obj(state["spec"])
        except ValueError as exc:
            raise ValueError(f"{path}.spec: {exc}") from None
        pairs = check_rows(
            state["phi"], f"{path}.phi", _COUNT,
            (lambda h: host.has_node(node_from_json(h)), f"a node of host {host.name}"),
        )
        if len(pairs) < spec.tree_n or sorted(g for g, _ in pairs) != list(range(len(pairs))):
            raise ValueError(
                f"{path}.phi must map each guest node 0..n-1 once, for an "
                f"n >= tree_n ({spec.tree_n}), got {len(pairs)} entries"
            )
        phi = {g: node_from_json(h) for g, h in pairs}
        # the guest Theorem 1 placed: the spec's tree with the same filler
        # chain embed_binary_tree added to reach the placement's size
        guest = make_tree(
            spec.tree_family, spec.tree_n, seed=spec.tree_seed
        ).padded_to(len(phi))
        try:
            program = PROGRAMS[spec.program](guest, **spec.program_args)
        except ValueError as exc:
            # the program factory is what knows its arguments' ranges
            raise ValueError(f"{path}.spec.program_args: {exc}") from None
        n_steps = program.n_supersteps
        status, next_step = state["status"], state["next_step"]
        # an active job runs superstep next_step; a terminal one may be past
        # the last
        last = n_steps - 1 if status == "active" else n_steps
        virtual_time = state.get("virtual_time", 0.0)
        for name, ok, want in (
            ("status", status in JOB_STATUSES, f"one of {JOB_STATUSES}"),
            ("next_step", is_int(next_step, 0) and next_step <= last,
             f"an integer in [0, {last}] ({n_steps} supersteps, job {status})"),
            *((name, is_int(state.get(name, 0), 0), "an integer >= 0") for name in _COUNTS),
            # .get(): checkpoints that predate virtual time lack it
            ("virtual_time", is_number(virtual_time) and virtual_time >= 0, "a number >= 0"),
        ):
            if not ok:
                raise ValueError(f"{path}.{name} must be {want}, got {state.get(name)!r}")
        job = cls(spec, Embedding(guest, host, phi), program)
        job.status = status
        job.next_step = next_step
        # float round-trips JSON exactly (repr), so restored picks are
        # bit-identical
        job.virtual_time = virtual_time
        job.per_step_cycles = list(
            check_items(state["per_step_cycles"], f"{path}.per_step_cycles", *_COUNT)
        )
        job.delivered = dict(check_rows(state["delivered"], f"{path}.delivered", _COUNT, _COUNT))
        job.failed = dict(check_rows(
            state["failed"], f"{path}.failed", _COUNT, (lambda r: isinstance(r, str), "a string")
        ))
        for name in _COUNTS:
            # .get(): checkpoints that predate the integrity protocol lack
            # its two counters
            setattr(job, name, state.get(name, 0))
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


def _sorted_tail(d: dict, start: int) -> list:
    """The items inserted into ``d`` after its first ``start``, by key."""
    return sorted(islice(reversed(d.items()), len(d) - start))
