"""Declarative decision-tree policies over engine feedback.

``repro.policy`` turns the runtime's scheduling and routing policies into
*data*: :mod:`repro.policy.dsl` is the versioned, strictly validated JSON
policy-tree format (:class:`PolicyDoc`, :func:`evaluate`), and imports
nothing else from ``repro``.  The interpreters sit beside their bases,
:class:`repro.simulate.TreeRouter` and
:class:`repro.runtime.TreeSchedulerPolicy`.  :mod:`repro.policy.tune`
searches the templates of :mod:`repro.policy.templates` against scenario
workloads; it runs them through :mod:`repro.service`, so it is imported
by its own name.  Committed winning documents live in ``policies/``.
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

__all__ = [
    "POLICY_VERSION",
    "DOMAINS",
    "OPS",
    "TIEBREAKS",
    "CONDITION_SIGNALS",
    "ACTION_SIGNALS",
    "PolicyDoc",
    "evaluate",
]
