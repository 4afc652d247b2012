"""Tree-policy scheduling: a :class:`PolicyDoc` driving ``Runtime`` picks.

:class:`TreeSchedulerPolicy` interprets a ``domain == "scheduling"``
policy document at every scheduling point: one decision-level snapshot is
taken over the active jobs (plus the runtime's clock and fault state, via
:meth:`bind_runtime`), the tree evaluates to a leaf action, and the
action's weights score each active job — lowest score runs, ties break
towards admission order.  The policy itself is stateless: everything it
reads lives on the jobs and the runtime, both of which checkpoint, so a
restored runtime picks bit-identically (gated in ``tests/test_policy.py``).

The built-ins are expressible as one-action trees:

* fair share  — ``{"action": "score", "weights": {"virtual_time": 1.0}}``
* FIFO        — ``{"action": "score", "weights": {}}`` (all tie, admission
  order wins)

which is what makes the DSL a superset worth tuning over rather than a
third hand-written policy.
"""

from __future__ import annotations

import weakref

from ..runtime.jobs import Job
from ..runtime.policies import SchedulerPolicy
from .dsl import PolicyDoc, evaluate

__all__ = ["TreeSchedulerPolicy"]


class TreeSchedulerPolicy(SchedulerPolicy):
    """Schedule supersteps by evaluating a declarative policy tree."""

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
