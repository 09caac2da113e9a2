"""Scheduling policies and the shared window/reservation/backfill machinery.

The paper compares four methods (§IV-D), all sharing the HPC-specific
starvation-avoidance machinery of §III-C (selection window, reservation
of the first non-fitting selection, EASY backfilling):

* ``fcfs``      — the *Heuristic* baseline: FCFS extended to multiple
  resources (list scheduling).
* ``ga``        — the *Optimization* baseline: multi-objective genetic
  algorithm (NSGA-II) over the window ordering.
* ``scalar_rl`` — the *Scalar RL* baseline: policy-gradient RL with a
  fixed-weight scalar reward (0.5·CPU util + 0.5·BB util).
* MRSch itself lives in :mod:`repro.core.mrsch` and plugs into the same
  :class:`~repro.sched.base.Scheduler` interface.
"""

from repro.sched.base import SchedulingContext, Scheduler, WindowPolicyScheduler
from repro.sched.fcfs import FCFSScheduler
from repro.sched.ga import GAScheduler, NSGA2Config
from repro.sched.scalar_rl import ScalarRLScheduler

__all__ = [
    "SchedulingContext",
    "Scheduler",
    "WindowPolicyScheduler",
    "FCFSScheduler",
    "GAScheduler",
    "NSGA2Config",
    "ScalarRLScheduler",
]
