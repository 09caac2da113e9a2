"""Dynamic resource prioritizing — the Eq. 1 goal vector (paper §III-B).

The goal vector weights each measurement in the scheduling objective.
MRSch recomputes it every scheduling instance so the fiercest-contended
resource gets the most attention:

.. math::

    r_j = \\frac{\\sum_{i=1}^{N} P_{ij} t_i}
               {\\sum_{j=1}^{R} \\sum_{i=1}^{N} P_{ij} t_i}

where :math:`P_{ij}` is job *i*'s request for resource *j* as a fraction
of capacity, and :math:`t_i` is the user runtime estimate for queued
jobs or the *remaining* estimate for running jobs. The numerator is the
(normalised) time needed to drain all demand for resource *j* at full
utilization — a longer drain time means fiercer contention.

Both sums are read off columns the simulator's two job tables keep:
:class:`~repro.sched.jobqueue.JobQueue` for the waiting jobs and
:class:`~repro.sched.jobqueue.RunningJobs` for the executing ones. A
refresh is two small matrix-vector products; no per-job row is rebuilt.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.sched.jobqueue import JobQueue, RunningJobs

__all__ = ["goal_vector", "contention_terms"]


def contention_terms(
    queued: JobQueue,
    running: RunningJobs,
    system: SystemConfig,
    now: float,
) -> np.ndarray:
    """Unnormalised per-resource drain times ``Σ_i P_ij · t_i``.

    Both halves are read off columns the two tables keep:
    :meth:`JobQueue.contention_totals` over the waiting jobs in
    submission order, :meth:`RunningJobs.contention_totals` over the
    executing ones in start order, each one ``(P / caps).T @ t``
    product. This runs every scheduling instance under dynamic
    prioritizing, so nothing here loops over jobs in Python. The
    product may re-associate the float adds of the per-job sum; the
    bound vs that reference order is pinned by a hypothesis property in
    tests/unit/test_goal.py.
    """
    if not isinstance(queued, JobQueue) or not isinstance(running, RunningJobs):
        raise TypeError(
            "contention_terms reads a JobQueue and a RunningJobs, not "
            f"{type(queued).__name__} and {type(running).__name__}"
        )
    # One compare per refresh: the tables must share their columns (the
    # simulator builds both, and its pool, from the system's names).
    if queued.names != running.names:
        raise ValueError(
            f"table columns {queued.names} / {running.names} do not match"
        )
    caps = system.capacities
    return queued.contention_totals(caps) + running.contention_totals(caps, now)


def goal_vector(
    queued: JobQueue,
    running: RunningJobs,
    system: SystemConfig,
    now: float,
) -> np.ndarray:
    """Eq. 1: contention-normalised resource weights (a simplex point).

    With no demand at all, falls back to uniform weights — every
    resource matters equally in an idle system.
    """
    totals = contention_terms(queued, running, system, now)
    denom = totals.sum()
    if denom <= 0:
        return np.full(system.n_resources, 1.0 / system.n_resources)
    return totals / denom
