"""The simulator with every arrival on the event heap, kept as the oracle.

:class:`~repro.sim.episode.EpisodeState` reads arrivals off a cursor over
its loaded jobs (already in submission order) and keeps only the ENDs of
started jobs on its heap. Before that, every job went through the heap
twice: :meth:`HeapEpisode.load` pushed one ``SUBMIT`` event per job and
:meth:`HeapEpisode.advance` popped each instant's batch off the one heap,
ENDs before SUBMITs at equal times. ``test_arrival_cursor.py`` holds the
cursor to this form, start for start and instance for instance.

* :class:`HeapEpisode` — that episode, as a subclass: ``start_job``,
  ``context``, ``finish`` and ``snapshot`` / ``restore`` are shared (the
  SUBMIT events ride in the heap's snapshot).
* :func:`as_reference` — re-classes a simulator's episode onto it, so a
  twin run differs from the one under test only in how arrivals come in.
* :func:`reference_metrics` — ``compute_metrics``' wait and slowdown
  through ``Job.wait_time`` / ``Job.slowdown``, the job properties it
  read before it read the fields.
"""

from __future__ import annotations

import numpy as np

from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.sim.episode import EpisodeState
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.metrics import _p95

__all__ = ["HeapEpisode", "as_reference", "reference_metrics"]


class HeapEpisode(EpisodeState):
    def load(self, jobs) -> None:
        self.pool.reset()
        self.queue = JobQueue(self.system.names)
        self.now = 0.0
        self.events = EventQueue()
        self.n_instances = 0
        self.jobs = []
        self.arrivals = 0  # unread: every arrival is a SUBMIT event
        self.running = RunningJobs(self.system.names)
        for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
            self.system.validate_job(job)
            copy = job.copy()
            self.jobs.append(copy)
            self.events.push(Event(copy.submit_time, EventKind.SUBMIT, copy))

    def advance(self) -> bool:
        if not self.events:
            return False
        batch = self.events.pop_simultaneous()
        self.now = batch[0].time
        for event in batch:
            self.apply(event)
        return True

    def apply(self, event: Event) -> None:
        if event.kind is EventKind.SUBMIT:
            self.queue.append(event.job)
        else:  # END
            job = event.job
            job.end_time = self.now
            self.pool.release(job)
            self.running.remove(job)


def as_reference(sim):
    """Re-class ``sim``'s episode (a ``Simulator`` or an ``EpisodeState``)
    onto :class:`HeapEpisode`; returns ``sim``."""
    state = getattr(sim, "state", sim)
    state.__class__ = HeapEpisode
    return sim


def reference_metrics(jobs) -> tuple[float, float, float, float]:
    """``(avg_wait, avg_slowdown, max_wait, p95_slowdown)`` of the
    finished ``jobs``, through the job properties."""
    finished = [j for j in jobs if j.finished]
    waits = np.array([j.wait_time for j in finished])
    slowdowns = np.array([j.slowdown for j in finished])
    return (
        float(waits.mean()),
        float(slowdowns.mean()),
        float(waits.max()),
        _p95(slowdowns),
    )
