"""The *Heuristic* baseline: FCFS extended to multiple resources.

The paper's heuristic comparator (§IV-D) is an extension of
first-come-first-serve belonging to the list-scheduling family: jobs are
started strictly in arrival order; the first job whose full
multi-resource request cannot be met is reserved, and EASY backfilling
(inherited from :class:`~repro.sched.base.Scheduler`) fills the gaps.

Arrival order is the queue's order, so the policy is the window's head.
That is the identity ranking served one selection at a time: each
selection either starts its job, which leaves the queue, or reserves
it, which ends the instance's selections, and the stale-reservation
check only ever starts the head. The next job in arrival order is
therefore always the live window's first.
"""

from __future__ import annotations

from repro.sched.base import Scheduler, SchedulingContext
from repro.workload.job import Job

__all__ = ["FCFSScheduler"]


class FCFSScheduler(Scheduler):
    """FCFS list scheduling over all schedulable resources."""

    name = "fcfs"

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        return window[0] if window else None
