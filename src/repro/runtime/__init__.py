"""Multi-tenant runtime: many guest programs, one host, live repair.

The one-shot simulators in :mod:`repro.simulate.mapping` answer "how many
cycles does *this* program cost on *this* embedding?".  This package
answers the operational question the paper's load-16 bound invites: what
does it take to run *several* embedded guest programs on one physical
X-tree at once, keep them within Theorem 1's load bound, survive node
deaths mid-run, and stop/resume the whole machine without changing a
single delivery cycle?

* :class:`~repro.runtime.jobs.JobSpec` / :class:`~repro.runtime.jobs.Job`
  — declarative workload recipes and their live instantiations;
* :mod:`repro.runtime.policies` — FIFO, backlog-weighted fair-share and
  policy-document (:class:`~repro.runtime.policies.TreeSchedulerPolicy`)
  superstep scheduling;
* :class:`~repro.runtime.core.Runtime` — admission control, the
  scheduling loop, online repair + message migration, and JSON
  checkpoint/resume.

See ``docs/API.md`` ("Multi-tenant runtime") and ``docs/ALGORITHM.md``
§9 for the design notes.
"""

from .core import CHECKPOINT_VERSION, AdmissionError, Runtime, RuntimeResult
from .jobs import JOB_STATUSES, Job, JobSpec
from .policies import (
    POLICIES,
    FairSharePolicy,
    FifoPolicy,
    SchedulerPolicy,
    TreeSchedulerPolicy,
    make_policy,
)

__all__ = [
    "Runtime",
    "RuntimeResult",
    "AdmissionError",
    "CHECKPOINT_VERSION",
    "Job",
    "JobSpec",
    "JOB_STATUSES",
    "SchedulerPolicy",
    "FifoPolicy",
    "FairSharePolicy",
    "TreeSchedulerPolicy",
    "POLICIES",
    "make_policy",
]
