"""The trace-driven, event-driven scheduling simulator.

Re-implements the CQSim role described in §IV: jobs are imported from a
trace; the clock jumps between events; every queue or system change
(submission, job completion) triggers one scheduling request to the
policy under test. Job *starts* use the user walltime for resource
estimates but the hidden actual runtime for the end event — exactly the
information asymmetry a production scheduler faces.

All mutable per-episode state lives in
:class:`~repro.sim.episode.EpisodeState`; this class binds one episode
to one scheduler and drives the loop.
"""

from __future__ import annotations

from repro.cluster.resources import ResourcePool, SystemConfig
from repro.obs import runtime as _obs_runtime
from repro.sched.base import Scheduler
from repro.sched.jobqueue import JobQueue
from repro.sim.episode import EpisodeState, SimulationResult
from repro.workload.job import Job

__all__ = ["Simulator", "SimulationResult"]


class Simulator:
    """Event-driven replay of a job trace under one scheduler.

    Parameters
    ----------
    system:
        Resource configuration.
    scheduler:
        Policy under test (reset at the start of every :meth:`run`).
    record_timeline:
        Log the Eq. 1 goal at every scheduling instance, for a policy
        that keeps the log (``goal_series()``, Figs 8–9). Off, such a
        policy refreshes the goal only where a decision reads it and
        logs nothing.
    """

    def __init__(
        self,
        system: SystemConfig,
        scheduler: Scheduler,
        record_timeline: bool = True,
    ) -> None:
        self.system = system
        self.scheduler = scheduler
        self.record_timeline = record_timeline
        self._state = EpisodeState(system, record_timeline)

    # -- episode-state views (the pool persists across runs) --------------

    @property
    def state(self) -> EpisodeState:
        return self._state

    @property
    def pool(self) -> ResourcePool:
        return self._state.pool

    @property
    def queue(self) -> JobQueue:
        return self._state.queue

    @property
    def now(self) -> float:
        return self._state.now

    # -- public API ------------------------------------------------------

    def run(self, jobs: list[Job]) -> SimulationResult:
        """Replay ``jobs`` to completion and return metrics.

        Jobs are copied; the caller's list is never mutated, so the same
        trace can be replayed under many schedulers.
        """
        session = _obs_runtime.session
        if session is None:
            return self._episode(jobs)
        with session.span(
            "episode", scheduler=self.scheduler.name, jobs=len(jobs)
        ) as attrs:
            result = self._episode(jobs)
            attrs["instances"] = result.n_scheduling_instances
            attrs["decisions"] = self.scheduler.decisions
            attrs["decisions_scored"] = self.scheduler.decisions_scored
            attrs["decisions_overruled"] = self.scheduler.decisions_overruled
            attrs["goal_refreshes"] = self.scheduler.goal_refreshes
            attrs["backfill_passes"] = self.scheduler.backfill_passes
            attrs["backfill_rows"] = self.scheduler.backfill_rows
        metrics = session.metrics
        metrics.counter("sim.episodes").inc()
        metrics.counter("sim.decisions").inc(self.scheduler.decisions)
        metrics.counter("sim.decisions_scored").inc(self.scheduler.decisions_scored)
        metrics.counter("sim.decisions_overruled").inc(self.scheduler.decisions_overruled)
        metrics.counter("sim.goal_refreshes").inc(self.scheduler.goal_refreshes)
        metrics.counter("sim.backfill_passes").inc(self.scheduler.backfill_passes)
        metrics.counter("sim.backfill_rows").inc(self.scheduler.backfill_rows)
        return result

    def _episode(self, jobs: list[Job]) -> SimulationResult:
        self._state.load(jobs)
        self.scheduler.reset()
        return self._state.run_to_completion(self.scheduler)
