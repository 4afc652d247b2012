"""Declarative decision-tree policies over engine feedback, plus tuning.

``repro.policy`` turns the runtime's pluggable-but-code-only scheduling
and routing policies into *data*:

* :mod:`repro.policy.dsl` — the versioned, strictly validated JSON
  policy-tree format (:class:`PolicyDoc`, :func:`evaluate`);
* :mod:`repro.policy.sched` — :class:`TreeSchedulerPolicy`, a document
  driving ``Runtime`` superstep picks;
* :mod:`repro.policy.route` — :class:`TreeRouter`, a document driving
  next-hop scoring/detours;
* :mod:`repro.policy.tune` — grid / random / cross-entropy search over
  parametric templates against scenario workloads, with a reproducible
  seeded tuning log (:func:`tune`, :data:`TEMPLATES`).

Committed winning documents live in ``policies/`` next to the scenario
library, and are validated in CI like scenarios are.
"""

from .dsl import (
    ACTION_SIGNALS,
    CONDITION_SIGNALS,
    DOMAINS,
    OPS,
    POLICY_VERSION,
    TIEBREAKS,
    PolicyDoc,
    evaluate,
)
from .route import TreeRouter
from .sched import TreeSchedulerPolicy
from .tune import TEMPLATES, Param, Template, TuneResult, apply_policy, evaluate_doc, tune

__all__ = [
    "POLICY_VERSION",
    "DOMAINS",
    "OPS",
    "TIEBREAKS",
    "CONDITION_SIGNALS",
    "ACTION_SIGNALS",
    "PolicyDoc",
    "evaluate",
    "TreeRouter",
    "TreeSchedulerPolicy",
    "Param",
    "Template",
    "TEMPLATES",
    "TuneResult",
    "apply_policy",
    "evaluate_doc",
    "tune",
]
