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
* :class:`KindedEventQueue` — the heap it runs on, the one the simulator
  used: entries ``(time, kind, seq, event)``, so ENDs (the simulator's
  :class:`~repro.sim.events.Event`) come before SUBMITs at equal times.
* :func:`as_reference` — re-classes a simulator's episode onto it, so a
  twin run differs from the one under test only in how arrivals come in.
* :func:`reference_metrics` — ``compute_metrics``' wait and slowdown
  through ``Job.wait_time`` / ``Job.slowdown``, the job properties it
  read before it read the fields.
"""

from __future__ import annotations

import heapq
from enum import IntEnum

import numpy as np

from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.sim.episode import EpisodeState
from repro.sim.events import EventQueue
from repro.sim.metrics import _p95

__all__ = [
    "EventKind", "Submit", "kind_of", "KindedEventQueue", "HeapEpisode", "as_reference",
    "reference_metrics",
]


class EventKind(IntEnum):
    """Event types, ordered by processing priority at equal times."""

    END = 0
    SUBMIT = 1


class Submit:
    """The arrival of ``job`` at ``time``."""

    __slots__ = ("time", "job")
    kind = EventKind.SUBMIT

    def __init__(self, time: float, job) -> None:
        if time < 0:
            raise ValueError("event time must be non-negative")
        self.time = time
        self.job = job


def kind_of(event) -> EventKind:
    """A :class:`Submit`'s kind, or END for the simulator's events."""
    return getattr(event, "kind", EventKind.END)


class KindedEventQueue(EventQueue):
    """The simulator's queue with the kind tie-break back in its entries."""

    def push(self, event) -> None:
        heapq.heappush(self._heap, (event.time, int(kind_of(event)), self._seq, event))
        self._seq += 1


class HeapEpisode(EpisodeState):
    def load(self, jobs) -> None:
        self.pool.reset()
        self.queue = JobQueue(self.system.names)
        self.now = 0.0
        self.events = KindedEventQueue()
        self.n_instances = 0
        self.jobs = []
        self.arrivals = 0  # unread: every arrival is a SUBMIT event
        self.running = RunningJobs(self.system.names)
        for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
            self.system.validate_job(job)
            copy = job.copy()
            self.jobs.append(copy)
            self.events.push(Submit(copy.submit_time, copy))

    def advance(self) -> bool:
        if not self.events:
            return False
        batch = self.events.pop_simultaneous()
        self.now = batch[0].time
        for event in batch:
            self.apply(event)
        return True

    def apply(self, event) -> None:
        if kind_of(event) is EventKind.SUBMIT:
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
