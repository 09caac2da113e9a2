"""Tests for the shared scheduling machinery: window, reservation, EASY
backfilling (§III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import NODE, ResourcePool, ResourceSpec, SystemConfig
from repro.sched import base as base_module
from repro.sched.base import (
    SHORT_PASS_ROWS,
    Scheduler,
    SchedulingContext,
    WindowPolicyScheduler,
)
from repro.sched.fcfs import FCFSScheduler
from repro.sched.jobqueue import JobQueue
from repro.sim.simulator import Simulator
from tests.conftest import make_job


class RecordingFCFS(FCFSScheduler):
    """FCFS that logs which jobs it selected (for window assertions)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.selections = []

    def select(self, window, ctx):
        job = super().select(window, ctx)
        if job is not None:
            self.selections.append(job.job_id)
        return job


def make_ctx(system, pool, queue, now=0.0):
    """A context over ``queue``: a JobQueue, or jobs to enqueue in one."""
    if not isinstance(queue, JobQueue):
        jobs, queue = queue, JobQueue(pool.names)
        for job in jobs:
            queue.append(job)

    def start(job):
        pool.allocate(job, now)
        job.start_time = now

    return SchedulingContext(now=now, queue=queue, pool=pool, system=system, start=start)


@pytest.fixture
def node_only_system():
    return SystemConfig(resources=(ResourceSpec(NODE, 10),))


def njob(job_id, nodes, submit=0.0, runtime=100.0, walltime=None):
    job = make_job(job_id=job_id, submit=submit, runtime=runtime,
                   walltime=walltime, nodes=nodes)
    job.requests.pop("burst_buffer")
    return job


class TestWindow:
    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            FCFSScheduler(window_size=0)

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", True, False, np.float64(2)])
    def test_non_integer_window_size_rejected(self, size):
        with pytest.raises(TypeError, match="window_size"):
            FCFSScheduler(window_size=size)

    def test_numpy_integer_window_size_accepted(self, node_only_system):
        pool = ResourcePool(node_only_system)
        queue = [njob(i, nodes=1) for i in range(1, 7)]
        sched = RecordingFCFS(window_size=np.int64(2), backfill=False)
        assert sched.window_size == 2 and type(sched.window_size) is int
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert sched.selections == list(range(1, 7))

    def test_selection_restricted_to_window(self, node_only_system):
        pool = ResourcePool(node_only_system)
        queue = [njob(i, nodes=1) for i in range(1, 8)]
        sched = RecordingFCFS(window_size=3, backfill=False)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        # All seven 1-node jobs fit; window refills as jobs start.
        assert sched.selections == list(range(1, 8))

    def test_selecting_outside_window_rejected(self, node_only_system):
        class Rogue(Scheduler):
            name = "rogue"

            def select(self, window, ctx):
                return ctx.queue[-1]  # beyond the window

        pool = ResourcePool(node_only_system)
        queue = [njob(i, nodes=1) for i in range(1, 6)]
        sched = Rogue(window_size=2, backfill=False)
        with pytest.raises(RuntimeError, match="outside the window"):
            sched.schedule(make_ctx(node_only_system, pool, queue))

    def test_an_equal_copy_of_a_window_job_rejected(self, node_only_system):
        """``Job`` is a dataclass, so a copy of the head compares equal
        to it. The window check is by identity: the copy is refused at
        the first selection instead of being started while the queued
        original waits forever."""

        class Copier(Scheduler):
            name = "copier"

            def select(self, window, ctx):
                return window[0].copy()

        pool = ResourcePool(SystemConfig(resources=(ResourceSpec(NODE, 8),)))
        queue = [njob(i, nodes=1) for i in range(1, 6)]
        assert queue[0].copy() == queue[0]
        sched = Copier(window_size=2, backfill=False)
        with pytest.raises(RuntimeError, match="selected job 1 outside the window"):
            sched.schedule(make_ctx(pool.config, pool, queue))
        assert sched.decisions == 1 and pool.mutations == 0

    def test_a_ranking_of_copies_falls_back_to_the_window(self, node_only_system):
        """The window-policy adapter serves a ranked job only if it is
        the window's own object; a ranking of equal copies is skipped
        and the queued originals start in queue order."""

        class CopyRanker(WindowPolicyScheduler):
            name = "copy-ranker"

            def rank(self, window, ctx):
                return [job.copy() for job in reversed(window)]

        pool = ResourcePool(node_only_system)
        queue = [njob(i, nodes=1) for i in range(1, 6)]
        ctx = make_ctx(node_only_system, pool, queue)
        CopyRanker(window_size=3, backfill=False).schedule(ctx)
        assert [job.job_id for job in ctx.started] == [1, 2, 3, 4, 5]
        assert all(a is b for a, b in zip(ctx.started, queue))


class TestContext:
    def test_plain_list_queue_rejected(self, node_only_system):
        pool = ResourcePool(node_only_system)
        with pytest.raises(TypeError, match="JobQueue"):
            SchedulingContext(now=0.0, queue=[njob(1, nodes=1)], pool=pool,
                              system=node_only_system, start=pool.allocate)

    def test_queue_columns_must_match_the_pool(self, tiny_system):
        pool = ResourcePool(tiny_system)
        for names in (["burst_buffer", "node"], ["node"]):
            with pytest.raises(ValueError, match="do not match"):
                SchedulingContext(now=0.0, queue=JobQueue(names), pool=pool,
                                  system=tiny_system, start=pool.allocate)


class TestReservation:
    def test_first_nonfitting_job_reserved(self, node_only_system):
        pool = ResourcePool(node_only_system)
        jobs = [njob(1, nodes=8), njob(2, nodes=8), njob(3, nodes=1)]
        ctx = make_ctx(node_only_system, pool, jobs)
        sched = FCFSScheduler(window_size=5, backfill=False)
        sched.schedule(ctx)
        queue = ctx.queue
        assert queue[0].job_id == 2  # job 1 started, removed from queue
        assert sched.reserved_job is queue[0]
        # Job 3 fits but must not start without backfilling.
        assert queue[1].start_time is None

    def test_reservation_starts_when_possible(self, node_only_system):
        pool = ResourcePool(node_only_system)
        blocker = njob(1, nodes=8)
        reserved = njob(2, nodes=8)
        ctx = make_ctx(node_only_system, pool, [blocker, reserved])
        sched = FCFSScheduler(window_size=5, backfill=False)
        sched.schedule(ctx)
        assert sched.reserved_job is reserved
        # Blocker ends; next instance starts the reserved job first.
        blocker.end_time = 100.0
        pool.release(blocker)
        sched.schedule(make_ctx(node_only_system, pool, ctx.queue, now=100.0))
        assert reserved.start_time == 100.0
        assert sched.reserved_job is None

    def test_stale_reservation_dropped_if_job_gone(self, node_only_system):
        pool = ResourcePool(node_only_system)
        ghost = njob(9, nodes=8)
        sched = FCFSScheduler(window_size=5)
        sched.reserved_job = ghost
        sched.schedule(make_ctx(node_only_system, pool, [njob(1, nodes=2)]))
        assert sched.reserved_job is None

    def test_reset_clears_reservation(self, node_only_system):
        sched = FCFSScheduler()
        sched.reserved_job = njob(1, nodes=1)
        sched.reset()
        assert sched.reserved_job is None


#: ``SHORT_PASS_ROWS`` as the module sets it (short queues walked, long
#: ones scanned) and 0 (every pass scans the columns): the EASY cases
#: and the oracle properties run under both
PASS_SIZES = pytest.mark.parametrize(
    "short_rows", [SHORT_PASS_ROWS, 0], ids=["default", "columnar"]
)


@PASS_SIZES
class TestBackfill:
    @pytest.fixture(autouse=True)
    def _pass_size(self, short_rows, monkeypatch):
        monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)

    def test_short_job_backfills(self, node_only_system):
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=6, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=10)  # reserved; shadow = 1000
        short = njob(3, nodes=4, walltime=500.0, runtime=500.0)
        queue = [big, short]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert sched.reserved_job is big
        assert short.start_time == 0.0  # ends at 500 < shadow 1000

    def test_long_job_does_not_delay_reservation(self, node_only_system):
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=6, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=10)
        long_job = njob(3, nodes=4, walltime=5000.0, runtime=5000.0)
        queue = [big, long_job]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        # long_job would hold 4 nodes past the shadow time and the
        # reservation needs all 10 — must not backfill.
        assert long_job.start_time is None

    def test_long_job_backfills_into_spare(self, node_only_system):
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=6, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=6)  # shadow=1000, spare = 10-6 = 4
        long_job = njob(3, nodes=4, walltime=9000.0, runtime=9000.0)
        queue = [big, long_job]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert long_job.start_time == 0.0

    def test_spare_decrements_across_backfills(self, node_only_system):
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=6, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=6)  # spare 4
        bf1 = njob(3, nodes=3, walltime=9000.0, runtime=9000.0)
        bf2 = njob(4, nodes=3, walltime=9000.0, runtime=9000.0)
        queue = [big, bf1, bf2]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert bf1.start_time == 0.0
        assert bf2.start_time is None  # spare exhausted (4-3=1 < 3)

    def test_spare_path_admission_decrements_then_blocks(self, node_only_system):
        """Spare-unit accounting end to end: the first long job consumes
        spare units, a second long job that fits free capacity (and the
        *original* spare) but not the reduced spare must not backfill,
        while a third that fits the remainder still may."""
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=3, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=8)  # 8 > 7 free: reserved; shadow=1000, spare=2
        bf1 = njob(3, nodes=1, walltime=9000.0, runtime=9000.0)  # spare 2→1
        bf2 = njob(4, nodes=2, walltime=9000.0, runtime=9000.0)  # 2 > 1: no
        bf3 = njob(5, nodes=1, walltime=9000.0, runtime=9000.0)  # 1 <= 1: yes
        queue = [big, bf1, bf2, bf3]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert bf1.start_time == 0.0
        # bf2 fits free capacity (6 nodes idle) — only the decremented
        # spare blocks it; without the decrement it would delay job 2.
        assert bf2.start_time is None
        assert bf3.start_time == 0.0

    def test_shadow_terminating_job_does_not_consume_spare(self, node_only_system):
        """A job admitted because it ends before the shadow time frees
        its units before the reservation starts — it must NOT reduce the
        spare pool for later spare-path candidates."""
        pool = ResourcePool(node_only_system)
        running = njob(1, nodes=4, walltime=1000.0, runtime=1000.0)
        pool.allocate(running, now=0.0)
        big = njob(2, nodes=8)  # 8 > 6 free: reserved; shadow=1000, spare=2
        short = njob(3, nodes=4, walltime=500.0, runtime=500.0)  # ends at 500
        long_job = njob(4, nodes=2, walltime=9000.0, runtime=9000.0)
        queue = [big, short, long_job]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert short.start_time == 0.0  # shadow-terminating path
        # The short job frees its 4 nodes at t=500 < shadow, so it must
        # not charge the spare pool: the long job's 2 nodes still fit the
        # intact spare of 2 and may start. (A buggy decrement would have
        # left spare at -2 and blocked it.)
        assert long_job.start_time == 0.0

    def test_spare_accounting_is_per_resource(self):
        """Multi-resource spare accounting: exhausting the BB spare must
        block a BB-hungry candidate even when node spare remains."""
        system = SystemConfig(
            resources=(ResourceSpec(NODE, 10), ResourceSpec("burst_buffer", 8))
        )
        pool = ResourcePool(system)
        running = make_job(job_id=1, runtime=1000.0, walltime=1000.0, nodes=6, bb=2)
        pool.allocate(running, now=0.0)
        # Reservation: 6 nodes + 6 BB → shadow=1000, spare: node 4, bb 2.
        big = make_job(job_id=2, runtime=1000.0, walltime=1000.0, nodes=6, bb=6)
        bf1 = make_job(job_id=3, runtime=9000.0, walltime=9000.0, nodes=1, bb=2)
        bf2 = make_job(job_id=4, runtime=9000.0, walltime=9000.0, nodes=1, bb=1)
        queue = [big, bf1, bf2]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(system, pool, queue))
        assert bf1.start_time == 0.0  # consumes the whole BB spare
        # bf2 fits capacity (3 free nodes, 4 free BB) and node spare (3),
        # but the BB spare is exhausted — admitting it could delay the
        # reservation's burst buffer.
        assert bf2.start_time is None

    def test_no_backfill_without_reservation(self, node_only_system):
        pool = ResourcePool(node_only_system)
        queue = [njob(1, nodes=2), njob(2, nodes=2)]
        sched = FCFSScheduler(window_size=5, backfill=True)
        sched.schedule(make_ctx(node_only_system, pool, queue))
        assert [j.start_time for j in queue] == [0.0, 0.0]  # everything started
        assert sched.reserved_job is None


# -- the fundamental EASY safety property -------------------------------------


class ShadowTrackingFCFS(FCFSScheduler):
    """Record the shadow time promised to each job when first reserved."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.promises: dict[int, float] = {}

    def _easy_backfill(self, ctx):
        reserved = self.reserved_job
        if reserved is not None and reserved.job_id not in self.promises:
            self.promises[reserved.job_id] = ctx.pool.earliest_fit_time(
                reserved, ctx.now
            )
        super()._easy_backfill(ctx)


@PASS_SIZES
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 10),     # nodes
            st.integers(50, 2000),  # runtime = walltime (exact estimates)
            st.integers(0, 300),    # inter-arrival gap
        ),
        min_size=3,
        max_size=25,
    )
)
def test_backfill_never_delays_reservation_property(short_rows, jobs_data):
    """The EASY guarantee (Mu'alem & Feitelson): with exact runtime
    estimates, a reserved job starts no later than the shadow time
    computed at reservation — backfilled jobs never push it back."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
        _check_reservation_kept(jobs_data)


def _check_reservation_kept(jobs_data):
    system = SystemConfig(resources=(ResourceSpec(NODE, 10),))
    t = 0.0
    jobs = []
    for i, (nodes, runtime, gap) in enumerate(jobs_data):
        t += gap
        job = make_job(job_id=i + 1, submit=t, runtime=float(runtime),
                       walltime=float(runtime), nodes=nodes)
        job.requests.pop("burst_buffer")
        jobs.append(job)

    sched = ShadowTrackingFCFS(window_size=4, backfill=True)
    sim = Simulator(system, sched, record_timeline=False)
    result = sim.run(jobs)
    starts = {j.job_id: j.start_time for j in result.jobs}
    assert all(s is not None for s in starts.values())  # no starvation
    for job_id, shadow in sched.promises.items():
        assert starts[job_id] <= shadow + 1e-6, (
            f"job {job_id} started {starts[job_id]} after promised {shadow}"
        )
