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
:meth:`Scheduler.schedule` and :meth:`Scheduler.schedule_gen` are two
entry points into one instance body; only the second pauses at the
policy's network calls.

The queue is always the simulator's
:class:`~repro.sched.jobqueue.JobQueue` (:class:`SchedulingContext`
rejects anything else): O(window) window extraction, O(1) dequeues and
one vectorized EASY pass over its columnar request arrays. The
straightforward forms these replaced — a plain-list queue, the
per-candidate ``can_fit`` EASY loop — live on as test oracles in
``tests/unit/_sched_reference.py``, held to the fast path decision for
decision.

The vectorized EASY pass also *carries its rejections* from one
scheduling instance to the next: it ends by recording what every row
still queued was rejected under, and the next pass scans only the rows
appended since iff (1) it sees the same queue object and the same
reserved job, (2) ``now`` has not gone back, (3) the shadow time is
``<=`` the recorded one, and (4) the free and the spare vectors are
component-wise ``<=`` the recorded ones. Float addition is monotone, so
under those four conditions ``now + walltime <= shadow``,
``request <= free`` and ``request <= spare`` can only turn from true to
false and every carried rejection is final. Anything else — a release,
a new reservation, :meth:`Scheduler.reset`, an ``EpisodeState.restore``
(a new queue object), a lockstep clone — takes the full scan.

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
from time import perf_counter

import numpy as np

from repro.obs import runtime as _obs_runtime

from repro.cluster.resources import ResourcePool, SystemConfig
from repro.sched.jobqueue import JobQueue, RunningJobs
from repro.workload.job import Job

__all__ = [
    "SchedulingContext",
    "DecisionInputs",
    "Scheduler",
    "WindowPolicyScheduler",
]


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


@dataclass
class DecisionInputs:
    """Network inputs of one staged window decision (split protocol).

    :meth:`Scheduler.prepare_decision` fills these so a batch layer can
    stack many episodes' rows into one network call and hand each
    episode its score row back through
    :meth:`Scheduler.apply_decision`. ``needs_scores`` is ``False``
    when the policy already committed to an action without the network
    (an exploration draw, or a window whose pick no score can change):
    the decision still flows through the split protocol, but the batch
    layer must not spend a scoring row on it — and the three arrays may
    be left unset.
    """

    state: np.ndarray | None = None
    measurement: np.ndarray | None = None
    goal: np.ndarray | None = None
    needs_scores: bool = True


class Scheduler(ABC):
    """Base scheduler implementing the §III-C instance loop."""

    name = "base"

    def __init__(self, window_size: int = 10, backfill: bool = True) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.backfill_enabled = backfill
        #: job currently holding a reservation (head-of-queue protection)
        self.reserved_job: Job | None = None
        #: optional :class:`repro.eval.recorder.DecisionTraceRecorder`;
        #: when attached, every selection (fitting starts and the
        #: reservation pick alike) is reported for offline evaluation.
        #: Recording is passive — no RNG, no behaviour change.
        self.decision_recorder = None
        #: what the last EASY pass left every queued row rejected under:
        #: ``(queue, reserved, now, shadow, free, spare, queue.appended)``
        #: — see :meth:`_easy_backfill`
        self._carried: tuple | None = None
        #: selections made since :meth:`reset`, how many ran the policy's
        #: network and how many of those the network moved off its prior
        self.decisions = 0
        self.decisions_scored = 0
        self.decisions_overruled = 0

    # -- policy hooks -----------------------------------------------------

    @abstractmethod
    def select(self, window: list[Job], ctx: SchedulingContext) -> Job | None:
        """Pick the next job from ``window`` (None = stop selecting)."""

    def begin_instance(self, ctx: SchedulingContext) -> None:
        """Called once per scheduling instance before any selection."""

    def end_instance(self, ctx: SchedulingContext) -> None:
        """Called once per scheduling instance after backfilling."""

    def decision_features(self, window: list[Job], ctx: SchedulingContext) -> dict | None:
        """Decision inputs of the *last* :meth:`select` call, if exposed.

        Policies that already compute DFP-style inputs (state encoding,
        measurement, goal, prior, scores) return them here so the trace
        recorder stores the policy's own values bit-for-bit; the default
        ``None`` lets the recorder derive canonical features itself.
        """
        return None

    def reset(self) -> None:
        """Clear episode state; called by the simulator before a run."""
        self.reserved_job = None
        self._carried = None
        self.decisions = 0
        self.decisions_scored = 0
        self.decisions_overruled = 0

    # -- split decision protocol (batched lockstep scoring) ----------------

    def prepare_decision(
        self, window: list[Job], ctx: SchedulingContext
    ) -> DecisionInputs | None:
        """Stage one window decision for external scoring.

        Policies whose :meth:`select` boils down to *encode inputs → run
        the network → pick over scores* split it here: return the
        network inputs (stashing whatever per-decision context
        :meth:`apply_decision` will need), and a batch layer scores many
        episodes' staged decisions in one call. The default ``None``
        declares the policy unsplittable; the loop falls back to
        :meth:`select`.
        """
        return None

    def apply_decision(
        self, window: list[Job], ctx: SchedulingContext, scores: np.ndarray | None
    ) -> Job | None:
        """Finish the decision staged by :meth:`prepare_decision`.

        ``scores`` is the policy's own scoring output for the staged
        inputs (``None`` when the staged decision said it needed no
        scores). Must behave exactly like the tail of :meth:`select`.
        """
        raise NotImplementedError(f"{self.name} does not implement the split protocol")

    def batch_scorer(self):
        """``(key, fn)`` for stacked scoring, or ``None``.

        ``fn(states, measurements, goals)`` must return per-row score
        arrays for stacked :class:`DecisionInputs` rows; ``key`` is an
        identity token (e.g. the shared agent) so a batch layer only
        stacks decisions that the same scorer can serve in one call.
        """
        return None

    def lockstep_clone(self) -> "Scheduler | None":
        """An independent scheduler for one more lockstep episode.

        Clones share read-only policy machinery (e.g. one DFP agent's
        weights and workspaces) but nothing episode-mutable, so N clones
        can run N episodes concurrently within one process. ``None``
        declares the policy unsafe to batch (e.g. it consumes per-decision
        RNG whose stream order the lockstep interleaving would change).
        """
        return None

    # -- the shared instance loop ------------------------------------------

    def schedule(self, ctx: SchedulingContext) -> None:
        """Run one scheduling instance (§III-C).

        Every decision goes through :meth:`select`, the call the
        decision probe times; unsplit, the instance body never pauses,
        so one ``next`` runs it whole.
        """
        next(self._instance(ctx, split=False), None)

    def schedule_gen(self, ctx: SchedulingContext):
        """:meth:`schedule` as a generator that pauses at network calls.

        Yields a :class:`DecisionInputs` at every point where the policy
        staged a decision via :meth:`prepare_decision`; the driver
        resumes the generator with ``send(scores)`` (or ``send(None)``
        when the staged decision needs no scores). Policies without the
        split protocol never yield — the generator runs the whole
        instance on first advance. Decision order, recorder hooks and
        reservation handling are identical to :meth:`schedule`.
        """
        return self._instance(ctx, split=True)

    def _instance(self, ctx: SchedulingContext, split: bool):
        """The instance body behind :meth:`schedule` and :meth:`schedule_gen`."""
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
            inputs = self.prepare_decision(window, ctx) if split else None
            if inputs is not None:
                # Untimed: a split decision spans a yield, and timing it
                # would charge the batch layer's cross-episode wait to
                # this scheduler.
                scores = (yield inputs) if inputs.needs_scores else None
                job = self.apply_decision(window, ctx, scores)
            elif probe is not None and probe.tick():
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
            if self.decision_recorder is not None:
                # Before the start/reserve below, while the pool still
                # reflects the state the policy decided on.
                self.decision_recorder.on_decision(self, window, job, ctx)
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

        Evaluated as ONE NumPy scan over the queue's columnar candidate
        arrays, decision-identical to the per-candidate ``can_fit`` loop
        kept as the oracle in ``tests/unit/_sched_reference.py``.
        Correctness: free and spare units only *shrink* during a pass
        (starts allocate, nothing releases), so a candidate inadmissible
        under the pass's *initial* state can never become admissible
        later in the same pass — the initial scan's rejections are
        final, and only its survivors need an O(R) re-verification
        against the live counters as earlier survivors start and consume
        units.

        The same argument carries rejections *across* passes (module
        docstring): when this pass's state is no looser than the one
        the last pass ended in, every row that pass left in the queue
        is still inadmissible and only the rows appended since are
        scanned.
        """
        reserved = self.reserved_job
        assert reserved is not None
        queue = ctx.queue
        pool = ctx.pool
        now = ctx.now
        shadow = pool.earliest_fit_time(reserved, now)
        free = pool.free_vector()  # live view — allocate updates in place
        spare = pool.free_vector_at(shadow, now)
        spare -= queue.request_row(reserved)
        since = self._carried_since(queue, reserved, now, shadow, free, spare)
        reqs, wall, alive, base = queue.candidate_arrays(since)
        if reqs.shape[0] == 0:
            return  # nothing new; what was carried stays carried
        # Few rows of a saturated queue fit the free units at all, so
        # that test runs over the whole view and the shadow/spare rule
        # only over the rows that pass it.
        fits = _rows_within(reqs, free)
        fits &= alive
        rel = queue.slot_of(reserved) - base
        if rel >= 0:
            fits[rel] = False
        cand = fits.nonzero()[0]  # queue order
        if cand.size:
            sub = reqs[cand]
            ends_ok = now + wall[cand] <= shadow  # the clock is fixed mid-pass
            keep = _rows_within(sub, spare)
            keep |= ends_ok
            while True:
                cand, sub, ends_ok = cand[keep], sub[keep], ends_ok[keep]
                if cand.size == 0:
                    break
                # The head survivor is admissible under the *current*
                # counters: the scan above vouched for the first one,
                # the re-filter below for every later head.
                self._start(queue.job_at_slot(base + int(cand[0])), ctx)
                if not ends_ok[0]:
                    spare -= sub[0]
                cand, sub, ends_ok = cand[1:], sub[1:], ends_ok[1:]
                if cand.size == 0:
                    break
                keep = _rows_within(sub, spare)
                keep |= ends_ok
                keep &= _rows_within(sub, free)
        # Every row still queued is inadmissible under this end state:
        # it is no looser than any state a row was rejected under above.
        self._carried = (
            queue, reserved, now, shadow, free.copy(), spare, queue.appended
        )

    def _carried_since(
        self,
        queue: JobQueue,
        reserved: Job,
        now: float,
        shadow: float,
        free: np.ndarray,
        spare: np.ndarray,
    ) -> int:
        """The ``queue.appended`` reading whose rows need no second look.

        Rows queued before it were all found inadmissible by the last
        pass; that verdict stands iff it is the same queue and
        reservation, the clock has not gone back, and shadow, free and
        spare are each no larger than the pass recorded — every test a
        candidate must pass is monotone in those. ``0`` scans everything.
        """
        if self._carried is None:
            return 0
        c_queue, c_reserved, c_now, c_shadow, c_free, c_spare, c_appended = (
            self._carried
        )
        if (
            c_queue is queue
            and c_reserved is reserved
            and c_now <= now
            and shadow <= c_shadow
            and (free <= c_free).all()
            and (spare <= c_spare).all()
        ):
            return c_appended
        return 0


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

    FCFS and the GA optimizer decide a full ordering once per instance;
    this adapter caches the ordering and serves it one job at a time
    through :meth:`select` (an index cursor — consumed entries are never
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
