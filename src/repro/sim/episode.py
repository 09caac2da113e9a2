"""Snapshot/restore-able per-episode simulation state.

The event loop in :class:`~repro.sim.simulator.Simulator` owns five
pieces of mutable state — pool arrays (plus their dirty trackers), the
waiting :class:`~repro.sched.jobqueue.JobQueue`, the arrival cursor, the
heap of job ENDs and the :class:`~repro.sched.jobqueue.RunningJobs`
table. :class:`EpisodeState` factors them behind one boundary, so a
whole episode can be checkpointed mid-run and restored bit-exactly
(``snapshot``/``restore``). The episode with every arrival a SUBMIT
event on the heap is the oracle in ``tests/unit/_sim_reference.py``.

The pool object survives :meth:`load` calls (it is reset, never
rebound), so incremental state encoders that attach to it by identity
keep their binding across episodes and restores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.resources import ResourcePool, SystemConfig
from repro.sched.base import Scheduler, SchedulingContext
from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.metrics import MetricReport, compute_metrics
from repro.workload.job import Job

__all__ = ["EpisodeState", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one simulated trace replay."""

    jobs: list[Job]
    metrics: MetricReport
    makespan: float
    n_scheduling_instances: int


class EpisodeState:
    """The full mutable state of one trace-replay episode.

    ``jobs`` are the loaded copies in submission order, ``jobs[arrivals:]``
    yet to arrive; ``events`` holds only job ENDs (one push and pop a job).

    Parameters
    ----------
    system:
        Resource configuration.
    record_timeline:
        Carried by every context this episode builds: a policy that
        keeps the Eq. 1 goal log (MRSch, ``prior``) logs the goal at
        every instance (``goal_series()``). Off, it refreshes the goal
        only where a decision reads it and logs nothing.
    """

    def __init__(self, system: SystemConfig, record_timeline: bool = True) -> None:
        self.system = system
        self.record_timeline = record_timeline
        self.pool = ResourcePool(system)
        self.now = 0.0
        self.queue: JobQueue = JobQueue(system.names)
        self.events = EventQueue()
        self.n_instances = 0
        self.jobs: list[Job] = []
        self.arrivals = 0
        #: executing jobs in start order — O(1) END handling
        self.running = RunningJobs(system.names)

    # -- lifecycle ---------------------------------------------------------

    def load(self, jobs: list[Job]) -> None:
        """Reset all state and queue ``jobs`` for arrival.

        Jobs are copied; the caller's list is never mutated, so the same
        trace can be replayed under many schedulers.
        """
        self.pool.reset()
        self.queue = JobQueue(self.system.names)
        self.now = 0.0
        self.events = EventQueue()
        self.n_instances = 0
        self.jobs = []
        self.arrivals = 0
        self.running = RunningJobs(self.system.names)
        for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
            self.system.validate_job(job)
            self.jobs.append(job.copy())

    def advance(self) -> bool:
        """Apply the next instant's events; ``False`` once drained.

        One ``True`` return corresponds to exactly one scheduling
        trigger: all simultaneous events are applied before the
        scheduler sees the new state (CQSim's trigger model), ENDs
        before the arrivals the cursor merges in at equal times.
        """
        events, jobs, i = self.events, self.jobs, self.arrivals
        n = len(jobs)
        if events:
            now = events.peek_time()
            if i < n and jobs[i].submit_time < now:
                now = jobs[i].submit_time
        elif i < n:
            now = jobs[i].submit_time
        else:
            return False
        self.now = now
        if events and events.peek_time() == now:
            for event in events.pop_simultaneous():
                job = event.job
                job.end_time = now
                self.pool.release(job)
                self.running.remove(job)
        append = self.queue.append
        while i < n and jobs[i].submit_time == now:
            append(jobs[i])
            i += 1
        self.arrivals = i
        return True

    def start_job(self, job: Job) -> None:
        self.pool.allocate(job, self.now)
        job.start_time = self.now
        self.running.add(job)
        self.events.push(Event(self.now + job.runtime, EventKind.END, job))

    def context(self) -> SchedulingContext:
        return SchedulingContext(
            now=self.now,
            queue=self.queue,
            pool=self.pool,
            system=self.system,
            start=self.start_job,
            running=self.running,
            record_timeline=self.record_timeline,
        )

    def end_instance(self) -> None:
        """Close one scheduling instance (count it)."""
        self.n_instances += 1

    def finish(self) -> SimulationResult:
        """Check completion and package the episode's result."""
        unfinished = [j.job_id for j in self.jobs if j.end_time is None]
        if unfinished:
            raise RuntimeError(f"simulation ended with unfinished jobs: {unfinished[:5]}")
        makespan = max((j.end_time or 0.0) for j in self.jobs) if self.jobs else 0.0
        return SimulationResult(
            jobs=self.jobs,
            metrics=compute_metrics(self.jobs, self.system),
            makespan=makespan,
            n_scheduling_instances=self.n_instances,
        )

    def run_to_completion(self, scheduler: Scheduler) -> SimulationResult:
        """Drive a loaded episode to its end under ``scheduler``: the
        inner loop of :meth:`Simulator.run <repro.sim.simulator.Simulator.run>`.

        One context serves every instance of the replay; each instance
        sets its clock and a fresh ``started`` list. It lives in this
        frame only: stored on the episode, its ``start`` (this episode's
        bound method) would make a reference cycle.
        """
        ctx = self.context()
        while self.advance():
            ctx.now = self.now
            ctx.started = []
            scheduler.schedule(ctx)
            self.end_instance()
        return self.finish()

    # -- snapshot / restore -------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the episode mid-run.

        Valid for restore onto *this* state object with the same loaded
        trace: the event heap references the episode's job objects, so
        per-job mutable fields are captured here and written back on
        :meth:`restore` while the job identities stay put.
        """
        return {
            "now": self.now,
            "n_instances": self.n_instances,
            "arrivals": self.arrivals,
            "pool": self.pool.snapshot(),
            "events": self.events.snapshot(),
            "queue": [job.job_id for job in self.queue],
            "running": [job.job_id for job in self.running],
            "jobs": {
                job.job_id: (job.start_time, job.end_time) for job in self.jobs
            },
        }

    def restore(self, snap: dict) -> None:
        """Restore state captured by :meth:`snapshot`.

        Pool arrays are overwritten in place (identity-bound encoder
        attachments survive; dirty trackers degrade to a full rebuild,
        so the next encode is bit-identical to a fresh one). The waiting
        queue is rebuilt in submission order, which reproduces the exact
        window/backfill candidate sequence.
        """
        self.now = snap["now"]
        self.n_instances = snap["n_instances"]
        self.arrivals = snap["arrivals"]
        self.pool.restore(snap["pool"])
        self.events.restore(snap["events"])
        by_id = {job.job_id: job for job in self.jobs}
        for jid, (start, end) in snap["jobs"].items():
            job = by_id[jid]
            job.start_time = start
            job.end_time = end
        self.queue = JobQueue(self.system.names)
        for jid in snap["queue"]:
            self.queue.append(by_id[jid])
        self.running = RunningJobs(self.system.names)
        for jid in snap["running"]:
            self.running.add(by_id[jid])
