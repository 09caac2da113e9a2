"""Scheduler interface and the shared §III-C starvation-avoidance loop.

Every policy — the FCFS heuristic, the GA optimizer, scalar RL, and
MRSch — runs inside the same scheduling-instance machinery:

1. a **window** exposes the ``window_size`` oldest waiting jobs (older
   jobs get priority, alleviating starvation),
2. the policy repeatedly **selects** one window job; fitting selections
   start immediately (the window re-fills and the system state the
   policy observes is updated between selections),
3. the first selected job that does *not* fit becomes the
   **reservation** — its resources are held via a shadow time so it
   starts at the earliest estimated opportunity,
4. **EASY backfilling** then moves later queued jobs ahead iff they do
   not delay the reservation (Mu'alem & Feitelson).

Policies implement :meth:`Scheduler.select`; everything else is shared.
:meth:`Scheduler.schedule` runs one instance, one decision at a time.

The queue is always the simulator's
:class:`~repro.sched.jobqueue.JobQueue` (:class:`SchedulingContext`
rejects anything else): O(window) window extraction, O(1) dequeues and
an EASY pass in two sizes. A queue whose storage span
(:attr:`JobQueue.span`, tombstones included) is at most
:data:`SHORT_PASS_ROWS` is walked job by job in Python; a longer one is
scanned as NumPy columns. Both passes find the fitting jobs first and
ask the pool for the shadow time and the spare units only when one
does. The straightforward forms these replaced — a plain-list queue,
the per-candidate ``can_fit`` EASY loop — live on as test oracles in
``tests/unit/_sched_reference.py``, held to both passes decision for
decision.

Policies that maintain *incremental per-decision state* (MRSch's
persistent state buffer, fed by pool dirty trackers) rely on one
invariant of this loop: every pool mutation between two ``select``
calls — the ``ctx.start`` allocation behind a fitting selection, the
simulator's releases and resets between instances — goes through
``ResourcePool.allocate``/``release``/``reset``, so registered
trackers observe the exact unit regions that changed. Nothing in the
selection/backfill machinery touches pool unit state directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import le
from time import perf_counter

import numpy as np

from repro.obs import runtime as _obs_runtime

from repro.cluster.resources import ResourcePool, SystemConfig
from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.workload.job import Job

__all__ = [
    "SchedulingContext",
    "Scheduler",
    "WindowPolicyScheduler",
]

#: Longest ``JobQueue.span`` whose EASY pass walks the jobs instead of
#: scanning the columns. One pass at 8 / 16 / 32 / 64 rows, walk vs
#: fits-first columnar pass (median of three best-of-1500, mini-Theta
#: 128/64 pool, 2-vCPU Xeon, Python 3.11, NumPy 2.4): no row fits free
#: 4.1 / 5.8 / 8.4 / 14.1 vs 6.0 / 6.0 / 6.1 / 6.6 µs; three rows fit and
#: start 20.8 / 22.8 / 24.9 / 30.9 vs 47.7 / 52.6 / 50.8 / 46.8 µs. The
#: columns now win no-fit passes from about 20 rows, the walk every pass
#: that starts a job; about half of short queues' passes start none, so
#: the walk still wins at 32.
SHORT_PASS_ROWS = 32


@dataclass
class SchedulingContext:
    """Everything a policy may observe and the one action it may take.

    ``start`` is provided by the simulator: it allocates resources,
    stamps the job's start time and schedules its end event. Policies
    must start jobs only through the machinery in :class:`Scheduler`.
    """

    now: float
    queue: JobQueue
    pool: ResourcePool
    system: SystemConfig
    start: Callable[[Job], None]
    #: jobs currently executing, in start order: the simulator's live
    #: running table itself. Eq. 1's running half reads its columns
    #: (:meth:`RunningJobs.contention_totals`), which are built on that
    #: first read, so a policy that never computes the goal never pays
    #: for them. ``None`` stands for an empty table (made here).
    running: RunningJobs | None = None
    #: jobs started during this instance (filled by the scheduler loop)
    started: list[Job] = field(default_factory=list)
    #: the replay records its timeline (the simulator's own flag): a
    #: policy then logs what it would otherwise skip, such as the Eq. 1
    #: goal at every instance. A hand-built context records.
    record_timeline: bool = True

    def __post_init__(self) -> None:
        queue = self.queue
        if not isinstance(queue, JobQueue):
            raise TypeError(f"queue must be a JobQueue, not {type(queue).__name__}")
        if queue.names != self.pool.names:
            raise ValueError(
                f"queue columns {queue.names} do not match the pool's {self.pool.names}"
            )
        if self.running is None:
            self.running = RunningJobs(queue.names)
        elif not isinstance(self.running, RunningJobs):
            raise TypeError(
                f"running must be a RunningJobs, not {type(self.running).__name__}"
            )


class Scheduler(ABC):
    """Base scheduler implementing the §III-C instance loop."""

    name = "base"

    def __init__(self, window_size: int = 10, backfill: bool = True) -> None:
        if isinstance(window_size, bool) or not isinstance(window_size, (int, np.integer)):
            raise TypeError(f"window_size must be an int, got {window_size!r}")
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = int(window_size)
        self.backfill_enabled = backfill
        #: job currently holding a reservation (head-of-queue protection)
        self.reserved_job: Job | None = None
        #: selections made since :meth:`reset`, how many ran the policy's
        #: network and how many of those the network moved off its prior;
        #: how many instances recomputed the Eq. 1 goal
        self.decisions = 0
        self.decisions_scored = 0
        self.decisions_overruled = 0
        self.goal_refreshes = 0

    # -- policy hooks -----------------------------------------------------

    @abstractmethod
    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        """Pick the next job from ``window`` (None = stop selecting)."""

    def begin_instance(self, ctx: SchedulingContext) -> None:
        """Called once per scheduling instance before any selection."""

    def end_instance(self, ctx: SchedulingContext) -> None:
        """Called once per scheduling instance after backfilling."""

    def reset(self) -> None:
        """Clear episode state; called by the simulator before a run."""
        self.reserved_job = None
        self.decisions = 0
        self.decisions_scored = 0
        self.decisions_overruled = 0
        self.goal_refreshes = 0

    # -- the shared instance loop ------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> None:
        """Run one scheduling instance (§III-C).

        Every decision goes through :meth:`select`, the call the
        decision probe times.
        """
        self.begin_instance(ctx)
        self._clear_stale_reservation(ctx)
        # Telemetry-off runs pay one module-attribute read per instance
        # and one None check per selection; the probe itself only times
        # every N-th selection. Purely passive — no RNG, no state.
        probe = _obs_runtime.decision_probe
        # An unsatisfied reservation blocks new head-of-queue
        # selections; only backfilling may proceed.
        while self.reserved_job is None:
            window = ctx.queue.window(self.window_size)
            if not window:
                break
            if probe is not None and probe.tick():
                t0 = perf_counter()
                job = self.select(window, ctx)
                probe.observe(self.name, perf_counter() - t0)
            else:
                job = self.select(window, ctx)
            if job is None:
                break
            self.decisions += 1
            if job not in window:
                raise RuntimeError(
                    f"{self.name}: selected job {job.job_id} outside the window"
                )
            if ctx.pool.can_fit(job):
                self._start(job, ctx)
            else:
                self.reserved_job = job
        if self.backfill_enabled and self.reserved_job is not None:
            self._easy_backfill(ctx)
        self.end_instance(ctx)

    def _clear_stale_reservation(self, ctx: SchedulingContext) -> None:
        """Start (or drop) a previous instance's reservation first.

        The reserved job keeps absolute priority: if its resources are
        now available it starts before anything else is considered.
        """
        job = self.reserved_job
        if job is None:
            return
        if job not in ctx.queue:
            self.reserved_job = None
            return
        if ctx.pool.can_fit(job):
            self._start(job, ctx)
            self.reserved_job = None

    def _start(self, job: Job, ctx: SchedulingContext) -> None:
        ctx.start(job)
        ctx.started.append(job)
        ctx.queue.remove(job)

    # -- EASY backfilling ------------------------------------------------------

    def _easy_backfill(self, ctx: SchedulingContext) -> None:
        """Move later jobs ahead iff they cannot delay the reservation.

        Multi-resource EASY: the *shadow time* is the estimated earliest
        instant the reserved job fits (per-resource k-th order statistic
        of estimated unit free times); the per-resource *spare* units are
        what remains free at the shadow time after the reservation is
        placed. A candidate may backfill if it fits now and either (a)
        its walltime ends before the shadow time, or (b) it consumes only
        spare units.

        Two passes, both decision-identical to the per-candidate
        ``can_fit`` loop kept as the oracle in
        ``tests/unit/_sched_reference.py``: a queue whose
        :attr:`JobQueue.span` is at most :data:`SHORT_PASS_ROWS` takes
        :meth:`_short_backfill`, a longer one ONE NumPy scan over the
        queue's columnar candidate arrays (below). Only the span picks
        the pass; no option does. Both passes find the fitting jobs
        first: ``request <= free`` is tested one resource column at a
        time over the whole view, and only when a row other than the
        reservation passes are the shadow time and the spare units asked
        for. In about half of a saturated queue's passes none does.

        Correctness: free and spare units only *shrink* during a pass
        (starts allocate, nothing releases), so a candidate inadmissible
        under the pass's *initial* state can never become admissible
        later in the same pass — the initial scan's rejections are
        final, and only its survivors need an O(R) re-verification
        against the live counters as earlier survivors start and consume
        units.
        """
        reserved = self.reserved_job
        assert reserved is not None
        queue = ctx.queue
        if queue.span <= SHORT_PASS_ROWS:
            self._short_backfill(ctx, reserved)
            return
        pool = ctx.pool
        now = ctx.now
        free = pool.free_vector()  # live view — allocate updates in place
        reqs, wall, alive, base = queue.candidate_arrays()
        fits = _rows_within(reqs, free)
        fits &= alive
        fits[queue.slot_of(reserved) - base] = False
        cand = fits.nonzero()[0]  # queue order
        if cand.size == 0:
            return
        shadow = pool.earliest_fit_time(reserved, now)
        spare = pool.free_vector_at(shadow, now)
        spare -= queue.request_row(reserved)
        sub = reqs[cand]
        ends_ok = now + wall[cand] <= shadow  # the clock is fixed mid-pass
        keep = _rows_within(sub, spare)
        keep |= ends_ok
        while True:
            cand, sub, ends_ok = cand[keep], sub[keep], ends_ok[keep]
            if cand.size == 0:
                return
            # The head survivor is admissible under the *current*
            # counters: the scan above vouched for the first one, the
            # re-filter below for every later head.
            self._start(queue.job_at_slot(base + int(cand[0])), ctx)
            if not ends_ok[0]:
                spare -= sub[0]
            cand, sub, ends_ok = cand[1:], sub[1:], ends_ok[1:]
            if cand.size == 0:
                return
            keep = _rows_within(sub, spare)
            keep |= ends_ok
            keep &= _rows_within(sub, free)

    def _short_backfill(self, ctx: SchedulingContext, reserved: Job) -> None:
        """The EASY pass of a short queue: one walk, no NumPy row.

        Keeps the jobs that fit the free units, in queue order; only if
        one does are the shadow time and the spare units asked for. The
        kept jobs are then walked as the columnar pass walks its
        survivors, with the same compares and float subtractions.
        """
        queue, pool, now = ctx.queue, ctx.pool, ctx.now
        names = queue.names
        free = pool.free_vector().tolist()
        limits = list(zip(names, free))
        kept = []
        for job in queue:
            get = job.requests.get
            for name, limit in limits:
                if get(name, 0) > limit:
                    break
            else:
                if job is not reserved:
                    kept.append(job)
        if not kept:
            return
        shadow = pool.earliest_fit_time(reserved, now)
        spare = (pool.free_vector_at(shadow, now) - queue.request_row(reserved)).tolist()
        for job in kept:
            req = [job.request(name) for name in names]
            ends_ok = now + job.walltime <= shadow
            if all(map(le, req, free)) and (ends_ok or all(map(le, req, spare))):
                self._start(job, ctx)
                free = [f - r for f, r in zip(free, req)]
                if not ends_ok:
                    spare = [s - r for s, r in zip(spare, req)]


def _rows_within(reqs: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """``(reqs <= limit).all(axis=1)`` as one compare per resource column.

    The reduction over an inner axis of two or three elements costs
    several times the compares it reduces.
    """
    ok = reqs[:, 0] <= limit[0]
    for j in range(1, reqs.shape[1]):
        ok &= reqs[:, j] <= limit[j]
    return ok


class WindowPolicyScheduler(Scheduler):
    """Scheduler whose policy is a per-instance *ordering* of the window.

    The GA optimizer decides a full ordering once per instance; this
    adapter caches the ordering and serves it one job at a time through
    :meth:`select` (an index cursor — consumed entries are never
    popped), re-validating against the live window.
    """

    def __init__(self, window_size: int = 10, backfill: bool = True) -> None:
        super().__init__(window_size=window_size, backfill=backfill)
        self._ordering: list[Job] = []
        self._cursor = 0

    @abstractmethod
    def rank(self, window: list[Job], ctx: SchedulingContext) -> list[Job]:
        """Return the window jobs in the order they should be started."""

    def begin_instance(self, ctx: SchedulingContext) -> None:
        window = ctx.queue.window(self.window_size)
        self._ordering = self.rank(window, ctx) if window else []
        self._cursor = 0

    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        ordering = self._ordering
        while self._cursor < len(ordering):
            job = ordering[self._cursor]
            self._cursor += 1
            if job in window:
                return job
        # Ordering exhausted: fall back to queue order for jobs that
        # rotated into the window after earlier starts.
        return window[0] if window else None
