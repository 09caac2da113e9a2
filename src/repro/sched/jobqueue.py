"""Incremental job-queue bookkeeping for the scheduler hot path.

The §III-C instance loop interrogates the waiting queue relentlessly:
every selection re-derives the window (the first ``window_size``
unstarted jobs), every start removes a job, and every EASY backfill pass
tests the *entire* queue against the pool. With a plain ``list`` those
are O(queue) scans and O(queue) ``remove`` shifts per selection — on
paper-scale traces (10⁴–10⁵ jobs, queue depths in the thousands) the
replay loop turns quadratic and the simulator, not the policy, dominates
wall-clock time.

:class:`JobQueue` keeps the queue in submission order with

* **O(1) amortized removal** — jobs are tombstoned in place via a
  ``job_id → slot`` map; storage is compacted only between scheduling
  passes (on ``append``/``compact``), so slot indices are stable while a
  selection or backfill pass iterates,
* **O(window) window extraction** — a head cursor skips the dead prefix
  permanently instead of re-filtering the whole queue per selection,
* **columnar request/walltime arrays** maintained incrementally next to
  the job list, so a backfill pass (and the Eq. 1 contention terms) can
  evaluate every queued candidate with a handful of vectorized NumPy
  comparisons instead of per-job ``can_fit`` calls.

It is the one queue form :class:`~repro.sched.base.SchedulingContext`
accepts. It keeps the ``list`` surface the machinery reads (iteration,
``len``, ``in``, ``remove``, ``append``, indexing); the plain-list
queue it replaced survives as a test oracle in
``tests/unit/_sched_reference.py``.

:class:`RunningJobs` is the same treatment for the executing set: a
start-ordered ``job_id → job`` table whose Eq. 1 columns (request /
capacity rows, walltimes, start times) are built at the first
:meth:`RunningJobs.contention_totals` call and maintained in place from
then on. Only a policy that reads Eq. 1 ever asks, so a heuristic
replay pays for the dict and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.workload.job import Job

__all__ = ["JobQueue", "RunningJobs"]

#: storage slots allocated up front and added per growth step
_MIN_CAPACITY = 256


class JobQueue:
    """Submission-ordered waiting queue with incremental bookkeeping.

    Parameters
    ----------
    names:
        Resource names (config order) for the columnar request matrix.
        The per-slot row is ``[job.request(n) for n in names]``; the
        matrix and the parallel walltime vector power the vectorized
        backfill pass in :meth:`repro.sched.base.Scheduler._easy_backfill`.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self._names: tuple[str, ...] = tuple(names)
        cap = _MIN_CAPACITY
        self._jobs: list[Job | None] = [None] * cap
        self._req = np.zeros((cap, len(self._names)))
        self._wall = np.zeros(cap)
        self._alive = np.zeros(cap, dtype=bool)
        self._slot: dict[int, int] = {}  # job_id -> storage slot
        self._head = 0  # first slot that may be alive
        self._tail = 0  # one past the last used slot
        self._n_dead = 0  # tombstones in [head, tail)
        #: jobs appended so far (read-only to callers); the appended jobs
        #: are the newest, so they sit in the last slots
        self.appends = 0

    # -- list-compatible surface ------------------------------------------

    def __len__(self) -> int:
        return len(self._slot)

    def __bool__(self) -> bool:
        return bool(self._slot)

    def __iter__(self) -> Iterator[Job]:
        for job in self._jobs[self._head : self._tail]:
            if job is not None:
                yield job

    def __contains__(self, job: Job) -> bool:
        return getattr(job, "job_id", None) in self._slot

    def __getitem__(self, index: int) -> Job:
        live = [job for job in self]
        return live[index]

    def append(self, job: Job) -> None:
        """Enqueue ``job``; compacts/grows storage as needed (amortized O(1))."""
        if job.job_id in self._slot:
            raise ValueError(f"job {job.job_id} is already queued")
        self.compact()
        if self._tail == len(self._jobs):
            self._grow()
        slot = self._tail
        self._jobs[slot] = job
        self._req[slot] = [job.request(n) for n in self._names]
        self._wall[slot] = job.walltime
        self._alive[slot] = True
        self._slot[job.job_id] = slot
        self._tail += 1
        self.appends += 1

    def remove(self, job: Job) -> None:
        """Tombstone ``job`` in O(1); storage indices stay stable."""
        slot = self._slot.pop(job.job_id, None)
        if slot is None:
            raise ValueError(f"job {job.job_id} is not queued")
        self._jobs[slot] = None
        self._alive[slot] = False
        self._n_dead += 1

    # -- scheduler fast paths ----------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def window(self, size: int) -> list[Job]:
        """The first ``size`` waiting jobs, in submission order.

        O(size) plus any dead prefix, which the head cursor then skips
        forever — the per-selection full-queue re-filter this replaces
        was the scheduler loop's largest scaling term.
        """
        jobs = self._jobs
        head, tail = self._head, self._tail
        while head < tail and jobs[head] is None:
            head += 1
            self._n_dead -= 1
        self._head = head
        out: list[Job] = []
        for slot in range(head, tail):
            job = jobs[slot]
            if job is not None and not job.started:
                out.append(job)
                if len(out) == size:
                    break
        return out

    @property
    def span(self) -> int:
        """Rows a :meth:`candidate_arrays` view covers, tombstones too."""
        return self._tail - self._head

    def candidate_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Columnar view for one vectorized pass over the queue.

        Returns ``(requests, walltimes, alive, first)`` where the arrays
        cover storage slots ``[first, tail)`` in submission order; dead
        slots are masked out by ``alive``. The arrays are *live* views:
        a :meth:`remove` during the pass flips ``alive`` in place (and
        nothing else moves), which is exactly the bookkeeping an EASY
        pass needs as it starts candidates mid-scan.
        """
        head, tail = self._head, self._tail
        return self._req[head:tail], self._wall[head:tail], self._alive[head:tail], head

    def newest(self, k: int) -> list[Job]:
        """The live jobs among the last ``k`` storage slots, in queue order.

        Compaction keeps the order, so the last ``k`` jobs appended are
        there unless one has been removed since.
        """
        jobs = self._jobs[max(self._head, self._tail - k) : self._tail]
        return [job for job in jobs if job is not None]

    def request_row(self, job: Job) -> np.ndarray:
        """The columnar request row of a queued job (read-only view)."""
        return self._req[self._slot[job.job_id]]

    def window_requests(self, window: list[Job]) -> np.ndarray:
        """The request rows of ``window``, one per job, in its order.

        ``window`` is what :meth:`window` returned (any prefix-order
        subset of the queued jobs works): the rows are found by walking
        the storage from the head once, by identity, so nothing is
        looked up per job. Read-only — a view when the jobs sit in
        consecutive slots, which they do unless a backfill start
        tombstoned one in between. IndexError when a job is not queued.
        """
        jobs = self._jobs
        slot = self._head
        slots = []
        for job in window:
            while jobs[slot] is not job:
                slot += 1
            slots.append(slot)
            slot += 1
        if slots and slots[-1] - slots[0] + 1 == len(slots):
            return self._req[slots[0] : slots[-1] + 1]
        return self._req[slots]

    def slot_of(self, job: Job) -> int:
        """Absolute storage slot of a queued job (KeyError when absent)."""
        return self._slot[job.job_id]

    def job_at_slot(self, slot: int) -> Job:
        """The job stored at absolute storage ``slot`` (must be alive)."""
        job = self._jobs[slot]
        if job is None:
            raise IndexError(f"slot {slot} holds a tombstone")
        return job

    def contention_totals(self, caps: np.ndarray) -> np.ndarray:
        """``Σ_i (req_ij / cap_j) · walltime_i`` over waiting jobs.

        The queued-job half of the Eq. 1 contention terms as one
        matrix-vector product over the columnar arrays.
        """
        if not self._slot:
            return np.zeros(len(self._names))
        reqs, wall, alive, _ = self.candidate_arrays()
        return (reqs[alive] / caps).T @ wall[alive]

    # -- storage management ------------------------------------------------

    def compact(self) -> None:
        """Drop tombstones when they dominate the live span.

        Called from :meth:`append` (i.e. between scheduling passes —
        submissions never interleave with a selection or backfill scan),
        so the slot indices handed out by :meth:`candidate_arrays`
        remain valid for the duration of any single pass.
        """
        waste = self._head + self._n_dead  # recycled prefix + tombstones
        if waste < _MIN_CAPACITY or waste * 2 < self._tail:
            return
        live = [
            slot
            for slot in range(self._head, self._tail)
            if self._jobs[slot] is not None
        ]
        n = len(live)
        self._jobs[:n] = [self._jobs[s] for s in live]
        self._req[:n] = self._req[live]
        self._wall[:n] = self._wall[live]
        self._alive[:n] = True
        for i in range(n, self._tail):
            self._jobs[i] = None
        self._alive[n : self._tail] = False
        self._head = 0
        self._tail = n
        self._n_dead = 0
        for i, job in enumerate(self._jobs[:n]):
            assert job is not None
            self._slot[job.job_id] = i

    def _grow(self) -> None:
        extra = max(_MIN_CAPACITY, len(self._jobs))
        self._jobs.extend([None] * extra)
        self._req = np.concatenate(
            [self._req, np.zeros((extra, len(self._names)))], axis=0
        )
        self._wall = np.concatenate([self._wall, np.zeros(extra)])
        self._alive = np.concatenate([self._alive, np.zeros(extra, dtype=bool)])


class RunningJobs:
    """Executing jobs in start order, with lazily built Eq. 1 columns.

    :meth:`add` at a start, :meth:`remove` at the job's END; iteration
    yields the jobs in start order. The columns exist only once
    :meth:`contention_totals` has been asked for; after that every
    :meth:`add` appends a row and every :meth:`remove` closes the gap,
    so the live rows stay packed ``[:n]`` in start order.
    """

    def __init__(self, names: Sequence[str]) -> None:
        self._names: tuple[str, ...] = tuple(names)
        self._jobs: dict[int, Job] = {}
        #: the capacity vector the rows were divided by; ``None`` until
        #: the columns are built
        self._caps: np.ndarray | None = None
        self._ids: list[int] = []  # job ids in row order
        self._rows = np.zeros((0, len(self._names)))
        self._wall = np.zeros(0)
        self._start = np.zeros(0)

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def __contains__(self, job: Job) -> bool:
        return getattr(job, "job_id", None) in self._jobs

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def add(self, job: Job) -> None:
        """Record a started job (its ``start_time`` already stamped)."""
        if job.job_id in self._jobs:
            raise ValueError(f"job {job.job_id} is already running")
        if job.start_time is None:
            raise ValueError(f"running job {job.job_id} has no start time")
        self._jobs[job.job_id] = job
        if self._caps is not None:
            self._append_row(job)

    def remove(self, job: Job) -> None:
        """Drop a finished job; later rows shift up one, order kept."""
        if self._jobs.pop(job.job_id, None) is None:
            raise ValueError(f"job {job.job_id} is not running")
        if self._caps is not None:
            i = self._ids.index(job.job_id)
            del self._ids[i]
            n = len(self._ids)
            self._rows[i:n] = self._rows[i + 1 : n + 1]
            self._wall[i:n] = self._wall[i + 1 : n + 1]
            self._start[i:n] = self._start[i + 1 : n + 1]

    def contention_totals(self, caps: np.ndarray, now: float) -> np.ndarray:
        """``Σ_i (req_ij / cap_j) · max(wall_i − (now − start_i), 0)``.

        The running-job half of the Eq. 1 contention terms: one
        matrix-vector product over the packed rows, in start order.
        The first call (or one with other capacities) builds the
        columns.
        """
        if caps is not self._caps:
            if self._caps is None or not np.array_equal(caps, self._caps):
                self._build(caps)
            self._caps = caps
        n = len(self._ids)
        if not n:
            return np.zeros(len(self._names))
        remaining = np.maximum(self._wall[:n] - (now - self._start[:n]), 0.0)
        return self._rows[:n].T @ remaining

    def _build(self, caps: np.ndarray) -> None:
        self._caps = caps
        self._ids = []
        size = max(_MIN_CAPACITY, 2 * len(self._jobs))
        self._rows = np.zeros((size, len(self._names)))
        self._wall = np.zeros(size)
        self._start = np.zeros(size)
        for job in self._jobs.values():
            self._append_row(job)

    def _append_row(self, job: Job) -> None:
        i = len(self._ids)
        if i == len(self._wall):
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
            self._wall = np.concatenate([self._wall, np.zeros_like(self._wall)])
            self._start = np.concatenate([self._start, np.zeros_like(self._start)])
        self._rows[i] = [job.request(n) for n in self._names]
        self._rows[i] /= self._caps
        self._wall[i] = job.walltime
        self._start[i] = job.start_time
        self._ids.append(job.job_id)
