"""The plain-list forms of the §III-C machinery, kept as the oracle.

These are the bodies ``repro.sched.base`` and ``repro.core.mrsch``
shipped beside their fast paths while the machinery still accepted a
plain ``list`` as the queue. The library now takes only the simulator's
:class:`~repro.sched.jobqueue.JobQueue`; ``test_jobqueue.py``,
``test_mrsch_settle.py`` and ``test_base_sched.py`` hold it to these,
decision for decision.

* :class:`ListQueue` — the waiting queue as a ``list``: the window is a
  filter over the queue from its head, a start is a ``list.remove``
  shift, and the Eq.-1 queue half is the product over rows rebuilt from
  the list at every call.
  It subclasses ``JobQueue`` only to pass ``SchedulingContext``'s type
  check and keeps none of its columnar storage, so a run that reaches a
  columnar fast path on it fails with ``AttributeError`` instead of
  mixing the two forms.
* :func:`as_reference` — re-classes a scheduler onto the per-candidate
  EASY loop (one ``can_fit`` and one spare test per queued job) and, for
  the ``prior`` method and MRSch, onto the per-job prior (``job.request`` rows, ``can_fit``
  feasibility). Like ``_nn_reference.as_reference``, the twin shares the
  constructor (seeds, weights) with the scheduler under test and differs
  only in how it computes.
"""

from __future__ import annotations

import numpy as np

from repro.core.prior import PriorScheduler
from repro.sched.jobqueue import JobQueue

__all__ = ["ListQueue", "as_reference"]


class ListQueue(JobQueue):
    def __init__(self, names, jobs=()) -> None:
        self._names = tuple(names)
        self._items = list(jobs)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self):
        return iter(self._items)

    def __contains__(self, job) -> bool:
        return job in self._items

    def append(self, job) -> None:
        self._items.append(job)

    def remove(self, job) -> None:
        self._items.remove(job)

    def window(self, size: int) -> list:
        out = []
        for job in self._items:
            if not job.started:
                out.append(job)
                if len(out) == size:
                    break
        return out

    def contention_totals(self, caps: np.ndarray) -> np.ndarray:
        if not self._items:
            return np.zeros(len(self._names))
        rows = np.asarray(
            [[job.request(name) for name in self._names] for job in self._items],
            dtype=float,
        )
        return (rows / caps).T @ np.asarray([job.walltime for job in self._items])


def _easy_backfill(self, ctx) -> None:
    reserved = self.reserved_job
    assert reserved is not None
    shadow = ctx.pool.earliest_fit_time(reserved, ctx.now)
    names = ctx.system.names
    spare = {
        name: ctx.pool.free_units_at(name, shadow, ctx.now) - reserved.request(name)
        for name in names
    }
    for job in list(ctx.queue):
        if job is reserved or job.started:
            continue
        if not ctx.pool.can_fit(job):
            continue
        ends_before_shadow = ctx.now + job.walltime <= shadow
        fits_spare = all(job.request(name) <= spare[name] for name in names)
        if ends_before_shadow or fits_spare:
            self._start(job, ctx)
            if not ends_before_shadow:
                for name in names:
                    spare[name] -= job.request(name)


def _prior(self, window, ctx) -> np.ndarray:
    n = len(window)
    names = ctx.system.names
    reqs = np.array(
        [[job.request(name) for name in names] for job in window], dtype=float
    ).reshape(n, len(names))
    fits = np.fromiter((ctx.pool.can_fit(job) for job in window), dtype=bool, count=n)
    demand = (reqs / self._caps) @ self._goal
    prior = np.zeros(self.window_size)
    prior[:n] = np.where(fits, 1.5 - demand, -1.5 - 0.1 * np.arange(n))
    return prior


_REFERENCE: dict[type, type] = {}


def as_reference(sched):
    """Re-class ``sched`` onto the per-candidate EASY loop (and, for a
    ``PriorScheduler`` — MRSch included — the per-job prior); returns ``sched``.

    The reference class is a direct subclass of ``type(sched)`` carrying
    the two bodies above as methods — a single base, so the instance
    layout ``__class__`` assignment checks is unchanged.
    """
    cls = type(sched)
    reference = _REFERENCE.get(cls)
    if reference is None:
        methods = {"_easy_backfill": _easy_backfill}
        if issubclass(cls, PriorScheduler):
            methods["_prior"] = _prior
        reference = _REFERENCE[cls] = type(f"Reference{cls.__name__}", (cls,), methods)
    sched.__class__ = reference
    return sched
