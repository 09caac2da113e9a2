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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sched.base": ["SchedulingContext", "Scheduler", "WindowPolicyScheduler"],
    "repro.sched.fcfs": ["FCFSScheduler"],
    "repro.sched.ga": ["GAScheduler"],
    "repro.sched.ga_config": ["NSGA2Config"],
    "repro.sched.scalar_rl": ["ScalarRLScheduler"],
})
