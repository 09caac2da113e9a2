"""The §III-C feasibility/age prior — the ranking MRSch's guided policy builds on.

Under the default guided policy MRSch ranks window slots by this prior and
lets the DFP scores reorder near-ties only (:func:`guided_scores`).
:class:`PriorScheduler` is the prior alone — the Eq. 1 goal and the
arg-max — and the base :class:`~repro.core.mrsch.MRSchScheduler` adds the
DFP agent to. Nothing here imports the network stack.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import SystemConfig
from repro.core.goal import goal_vector
from repro.sched.base import Scheduler, SchedulingContext, _rows_within
from repro.workload.job import Job

__all__ = ["DFP_TIEBREAK_SCALE", "PriorScheduler", "guided_scores", "prior_scores"]

#: cap on the normalised DFP contribution under the guided policy —
#: enough to reorder near-ties, never enough to cross prior ranks
DFP_TIEBREAK_SCALE = 0.02


def prior_scores(fits: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Feasibility/age prior over the last axis: one window ``(n,)`` or a trace ``(N, W)``.

    Fitting jobs score in [0.5, 1.5] (lower goal-weighted demand → higher),
    non-fitting ones in [-1.5, -1.0] (queue order = age order: the oldest
    leads by a full tie-break margin, so the reservation protects it). DFP
    scores reorder within a class but cannot cross the gap between them.
    """
    rank = np.arange(demand.shape[-1], dtype=float)
    return np.where(fits, 1.5 - demand, -1.5 - 0.1 * rank)


def guided_scores(
    prior_weight: float, prior: np.ndarray, scores: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Weighted prior plus DFP scores peak-normalised to :data:`DFP_TIEBREAK_SCALE`.

    Row-wise over the last axis: the peak is over valid slots (a zero or NaN
    peak leaves the scores unscaled); invalid slots are set to ``-inf``.
    """
    peak = np.where(mask, np.abs(scores), 0.0).max(axis=-1, keepdims=True)
    scale = np.divide(DFP_TIEBREAK_SCALE, peak, out=np.ones_like(peak), where=peak > 0.0)
    return np.where(mask, prior_weight * prior + scores * scale, -np.inf)


class PriorScheduler(Scheduler):
    """The feasibility/age prior alone: MRSch's guided ranking, no network.

    An instance refreshes the Eq. 1 goal (§III-B) where a decision can
    read it, and at every instance of a replay that records its timeline,
    which also logs it for Figs 8–9; each selection is the arg-max of
    :meth:`_prior` — what guided MRSch picks when every DFP score is zero.
    """

    name = "prior"

    def __init__(
        self, system: SystemConfig, window_size: int = 10, backfill: bool = True,
        dynamic_goal: bool = True,
    ) -> None:
        super().__init__(window_size=window_size, backfill=backfill)
        self.system = system
        #: §III-B dynamic resource prioritizing. False freezes the goal
        #: at uniform weights — the fixed-priority behaviour the paper's
        #: Fig. 1 argues against; kept for the ablation benchmark.
        self.dynamic_goal = dynamic_goal
        self._caps = system.capacities
        #: (time, goal vector) samples of the current run — Figs 8–9
        self.goal_log: list[tuple[float, np.ndarray]] = []
        self._goal = np.full(system.n_resources, 1.0 / system.n_resources)

    def reset(self) -> None:
        super().reset()
        self.goal_log = []
        self._goal = np.full(self.system.n_resources, 1.0 / self.system.n_resources)

    def begin_instance(self, ctx: SchedulingContext) -> None:
        """Dynamic resource prioritizing (§III-B): refresh the goal.

        A recorded replay (``ctx.record_timeline``) refreshes and logs it
        at every instance; an unrecorded one refreshes it only where
        :meth:`_reads_goal` says a decision can read it, and logs nothing.
        A frozen goal is never refreshed.
        """
        record = ctx.record_timeline
        if self.dynamic_goal and (record or self._reads_goal(ctx)):
            # A fresh array each refresh, never written in place: logged as is.
            self._goal = goal_vector(ctx.queue, ctx.running, self.system, ctx.now)
            self.goal_refreshes += 1
            if record:
                self.goal_log.append((ctx.now, self._goal))
        elif record:  # the frozen goal
            self.goal_log.append((ctx.now, self._goal.copy()))

    def _reads_goal(self, ctx: SchedulingContext) -> bool:
        """Whether a decision of this instance can read the goal.

        Only a window of two or more jobs is ranked by the goal-weighted
        prior: a one-job window is decided without it (:meth:`select`,
        and MRSch's ``_settle``). The rule reads the queue at the start
        of the instance and is exact:

        * the refresh, when made, is the same ``goal_vector`` call on the
          same state as a refresh at every instance, because this hook
          still runs before the stale reservation is cleared;
        * submissions never arrive mid-instance, so an instance that
          starts with at most one queued job makes at most one selection,
          from a one-job window; with ``window_size`` 1 every window
          holds one job.

        So every decision reads the floats it would read were the goal
        refreshed at every instance, and a recorded replay logs that very
        series.
        """
        return min(len(ctx.queue), self.window_size) >= 2

    def _prior(self, window: list[Job], ctx: SchedulingContext) -> np.ndarray:
        """:func:`prior_scores` over the window's slots (zero past its end).

        Request rows come off the queue's columns and feasibility is one
        compare against the pool's free counts — the booleans ``can_fit``
        returns, which the per-job oracle in ``tests/unit/_sched_reference.py``
        asks job by job.
        """
        reqs = ctx.queue.window_requests(window)
        fits = _rows_within(reqs, ctx.pool.free_vector())
        prior = np.zeros(self.window_size)
        prior[: len(window)] = prior_scores(fits, (reqs / self._caps) @ self._goal)
        return prior

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        if not window:
            return None
        if len(window) == 1:  # the arg-max over one slot, as MRSch settles it
            return window[0]
        return window[int(np.argmax(self._prior(window, ctx)[: len(window)]))]

    def goal_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, goal vectors) logged during the last run.

        Empty after a replay that recorded no timeline
        (``Simulator(record_timeline=False)``, every grid cell): only a
        recorded replay logs the goal.
        """
        if not self.goal_log:
            return np.zeros(0), np.zeros((0, self.system.n_resources))
        times, goals = zip(*self.goal_log)
        return np.array(times), np.vstack(goals)
