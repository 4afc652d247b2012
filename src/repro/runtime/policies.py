"""Superstep scheduling policies for the multi-tenant runtime.

The runtime is a cooperative time-multiplexer: at every scheduling point
exactly one job runs exactly one superstep on the shared host network
(the engine is synchronous, so a superstep is the natural indivisible
quantum).  A policy only decides *which* active job goes next.

Determinism matters more than sophistication here: given the same admitted
jobs and the same per-superstep cycle costs, a policy must make the same
sequence of picks — it is part of the state a checkpoint must reproduce.
Both built-in policies are pure functions of the jobs' own counters
(``virtual_time``, ``backlog``, admission order), so they need no
serialised state of their own.

Beyond the two built-ins, a policy can be a declarative decision tree,
:class:`TreeSchedulerPolicy`: :func:`make_policy` accepts a policy
document (:class:`repro.policy.PolicyDoc` or its parsed dict) wherever a
name is accepted.
"""

from __future__ import annotations

import weakref

from ..policy import PolicyDoc, evaluate
from .jobs import Job

__all__ = [
    "SchedulerPolicy",
    "FifoPolicy",
    "FairSharePolicy",
    "TreeSchedulerPolicy",
    "POLICIES",
    "make_policy",
]


class SchedulerPolicy:
    """Pick the next job to run one superstep."""

    name = "?"

    def bind_runtime(self, runtime) -> "SchedulerPolicy":
        """Attach the runtime whose jobs this policy schedules.

        The built-ins are pure functions of the jobs themselves and ignore
        the hook; policies that condition on runtime-wide state (the
        global clock, fault state — see :class:`TreeSchedulerPolicy`)
        override it.
        """
        return self

    def pick(self, active: list[Job]) -> Job:
        """Return one of ``active`` (never empty, admission order)."""
        raise NotImplementedError


class FifoPolicy(SchedulerPolicy):
    """Run-to-completion in admission order — the baseline.

    The first admitted job that is still active runs until it finishes
    (or exhausts its budget); only then does the next job start.  Zero
    interleaving: latecomers wait the full makespan of everything ahead
    of them, which is exactly the head-of-line blocking the fair-share
    policy exists to remove.
    """

    name = "fifo"

    def pick(self, active: list[Job]) -> Job:
        return active[0]


class FairSharePolicy(SchedulerPolicy):
    """Weighted fair sharing of host cycles, backlog-aware.

    Each job carries a *virtual time* accumulator that the runtime accrues
    **incrementally**: every superstep charges ``cycles / weight`` at the
    weight the superstep *started* with, where ``weight = priority *
    max(1, backlog)`` (see :meth:`repro.runtime.jobs.Job.fair_weight` and
    ``Runtime._run_superstep``).  The scheduler always runs the job with
    the least accrued virtual time (ties break towards admission order).
    ``backlog`` is the job's queued-message count as the engine reports
    it — every superstep's :class:`~repro.simulate.engine.DeliveryStats`
    drains delivered and failed messages out of it — so a job with more
    queued work gets proportionally more of the host, and a draining
    job's share decays instead of starving latecomers.  With equal
    priorities and equal backlogs this degenerates to round-robin by
    cycles consumed; priorities scale a job's share linearly.

    Incremental accrual is what makes virtual time *monotone*.  The
    original implementation divided the job's lifetime ``consumed_cycles``
    by its **current** weight at every pick, retroactively re-weighting
    the entire history as the backlog drained: a job that had cheaply
    consumed cycles while loaded saw its virtual time leapfrog past its
    competitors' the moment it neared completion, and was starved at the
    finish line (regression-tested in ``tests/test_runtime.py``).  The
    accumulator is checkpointed (``Job.state()["virtual_time"]``) so a
    restored runtime picks bit-identically.
    """

    name = "fair"

    def pick(self, active: list[Job]) -> Job:
        best = None
        best_key: tuple[float, int] | None = None
        for order, job in enumerate(active):
            key = (job.virtual_time, order)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best


class TreeSchedulerPolicy(SchedulerPolicy):
    """Schedule supersteps by evaluating a scheduling-domain policy document.

    Each pick evaluates the document's tree on one snapshot of the active
    jobs and the runtime (clock and fault state, via :meth:`bind_runtime`);
    the leaf action's weights score each job, the lowest runs and ties go
    to admission order.  The policy is stateless: what it reads lives on
    the jobs and the runtime, both of which checkpoint.  Fair share is the
    one-action tree ``{"action": "score", "weights": {"virtual_time": 1.0}}``.
    """

    def __init__(self, doc: PolicyDoc | dict):
        if isinstance(doc, dict):
            doc = PolicyDoc.from_obj(doc)
        if doc.domain != "scheduling":
            raise ValueError(
                f"policy document {doc.name!r} has domain {doc.domain!r}; "
                f'a scheduling policy needs domain "scheduling"'
            )
        self.doc = doc
        self.runtime = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"tree:{self.doc.name}"

    def bind_runtime(self, runtime) -> "TreeSchedulerPolicy":
        # the runtime owns its policy: a weak proxy back keeps the pair
        # free of a reference cycle
        self.runtime = weakref.proxy(runtime)
        return self

    # -- signal snapshots ----------------------------------------------
    def _decision_signals(self, active: list[Job]) -> dict:
        """One condition snapshot per pick (see ``CONDITION_SIGNALS``)."""
        backlogs = [j.backlog for j in active]
        rt = self.runtime
        faulted = rt is not None and bool(rt.dead_nodes or rt.network.failed)
        return {
            "n_active": float(len(active)),
            "cycle": float(rt.cycle) if rt is not None else 0.0,
            "faulted": 1.0 if faulted else 0.0,
            "total_backlog": float(sum(backlogs)),
            "max_backlog": float(max(backlogs)),
            "min_backlog": float(min(backlogs)),
            "max_priority": float(max(j.spec.priority for j in active)),
        }

    @staticmethod
    def _job_signal(job: Job, sig: str, order: int) -> float:
        if sig == "order":
            return float(order)
        if sig == "virtual_time":
            return job.virtual_time
        if sig == "backlog":
            return float(job.backlog)
        if sig == "priority":
            return float(job.spec.priority)
        if sig == "n_delivered":
            return float(len(job.delivered))
        if sig == "n_failed":
            return float(len(job.failed))
        # consumed_cycles, remaining_steps, next_step, total_messages,
        # n_repairs — all plain counters on the job
        return float(getattr(job, sig))

    # -- the pick -------------------------------------------------------
    def pick(self, active: list[Job]) -> Job:
        action = evaluate(self.doc.tree, self._decision_signals(active))
        weights = action.get("weights", {})
        bias = action.get("bias", 0.0)
        best = None
        best_key: tuple[float, int] | None = None
        for order, job in enumerate(active):
            score = bias
            for sig, w in weights.items():
                score += w * self._job_signal(job, sig, order)
            key = (score, order)
            if best_key is None or key < best_key:
                best, best_key = job, key
        return best


#: CLI / config names for the built-in policies.  A decision-tree policy
#: has no name here: it is built from its policy document.
POLICIES = {"fifo": FifoPolicy, "fair": FairSharePolicy}


def make_policy(spec: SchedulerPolicy | str | dict | PolicyDoc | None) -> SchedulerPolicy:
    """Resolve ``None`` / a registry name / a ready instance / a policy
    document (a parsed dict or :class:`~repro.policy.PolicyDoc` with
    ``domain == "scheduling"``) to a policy."""
    if spec is None:
        return FifoPolicy()
    if isinstance(spec, SchedulerPolicy):
        return spec
    if isinstance(spec, str):
        try:
            return POLICIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scheduling policy {spec!r}: expected one of "
                f"{sorted(POLICIES)} or a policy document"
            ) from None
    if isinstance(spec, (dict, PolicyDoc)):
        return TreeSchedulerPolicy(spec)
    raise TypeError(
        f"policy must be a SchedulerPolicy, a name, a policy document, "
        f"or None, got {type(spec)!r}"
    )
