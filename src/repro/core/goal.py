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
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.workload.job import Job

__all__ = ["goal_vector", "contention_terms"]


def contention_terms(
    queued: list[Job],
    running: list[Job],
    system: SystemConfig,
    now: float,
) -> np.ndarray:
    """Unnormalised per-resource drain times ``Σ_i P_ij · t_i``.

    Both halves are one columnar matrix-vector product each,
    ``(P / caps).T @ t`` over rows in queue/start order — this runs
    every scheduling instance under dynamic prioritizing, so a Python
    loop over a deep queue would dominate an MRSch replay. The shared
    convention also makes the result *bit*-identical between the plain
    ``list`` queue form and the simulator's
    :class:`~repro.sched.jobqueue.JobQueue` (whose
    ``contention_totals`` evaluates the identical product over its
    columnar arrays): the historical per-job running-half loop summed
    in a different float order, which let an exact score tie resolve
    differently between queue forms (~1e-15 relative goal drift, since
    resolved; the bound vs the per-job reference order is pinned by a
    hypothesis property in tests/unit/test_goal.py).
    """
    from repro.sched.jobqueue import JobQueue  # late: avoids an import cycle

    names = system.names
    caps = system.capacities
    if isinstance(queued, JobQueue) and list(queued.names) == names:
        totals = queued.contention_totals(caps)
    else:
        totals = _columnar_terms(queued, names, caps, None, now)
    return totals + _columnar_terms(running, names, caps, "remaining", now)


def _columnar_terms(
    jobs, names: list[str], caps: np.ndarray, time_kind: str | None, now: float
) -> np.ndarray:
    """``(P / caps).T @ t`` over ``jobs`` in iteration order.

    ``time_kind`` selects ``t``: ``None`` uses the full walltime
    estimate (queued jobs), ``"remaining"`` the clamped remaining
    estimate ``max(walltime − (now − start), 0)`` (running jobs).
    """
    rows = []
    t = []
    for job in jobs:
        if time_kind == "remaining":
            if job.start_time is None:
                raise ValueError(f"running job {job.job_id} has no start time")
            t.append(max(job.walltime - (now - job.start_time), 0.0))
        else:
            t.append(job.walltime)
        rows.append([job.request(n) for n in names])
    if not rows:
        return np.zeros(len(names))
    mat = np.asarray(rows, dtype=float)
    return (mat / caps).T @ np.asarray(t)


def goal_vector(
    queued: list[Job],
    running: list[Job],
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
