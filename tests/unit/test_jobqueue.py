"""Tests for the incremental JobQueue and the scheduler fast paths.

The crucial property: the scheduler machinery on a :class:`JobQueue`
(the simulator's fast path) must make *identical decisions* to the
plain-list reference in ``tests/unit/_sched_reference.py`` — a list
queue under the per-candidate EASY loop, with FCFS as the identity
ranking — window contents, selection
order, reservation choice and every backfill admission included.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import (
    BURST_BUFFER,
    NODE,
    POWER,
    ResourcePool,
    ResourceSpec,
    SystemConfig,
)
from repro.core.prior import PriorScheduler
from repro.sched import base as base_module
from repro.sched import jobqueue as jobqueue_module
from repro.sched.base import SHORT_PASS_ROWS, SchedulingContext
from repro.sched.fcfs import FCFSScheduler
from repro.sched.jobqueue import JobQueue
from repro.sim.episode import EpisodeState
from repro.workload.job import Job
from tests.conftest import make_job
from tests.unit._sched_reference import ListQueue, RankedFCFS, as_reference
from tests.unit.test_base_sched import PASS_SIZES
from tests.unit.test_mrsch import small_mrsch


def node_system(units: int = 10) -> SystemConfig:
    return SystemConfig(resources=(ResourceSpec(NODE, units),))


def njob(job_id, nodes, submit=0.0, runtime=100.0, walltime=None):
    job = make_job(job_id=job_id, submit=submit, runtime=runtime,
                   walltime=walltime, nodes=nodes)
    job.requests.pop("burst_buffer")
    return job


class TestJobQueueBasics:
    def test_append_iter_len(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1) for i in range(5)]
        for job in jobs:
            q.append(job)
        assert len(q) == 5
        assert list(q) == jobs
        assert bool(q)

    def test_contains_and_remove(self):
        q = JobQueue([NODE])
        a, b = njob(1, nodes=2), njob(2, nodes=3)
        q.append(a), q.append(b)
        assert a in q and b in q
        q.remove(a)
        assert a not in q and b in q
        assert list(q) == [b]
        with pytest.raises(ValueError, match="not queued"):
            q.remove(a)

    def test_double_append_rejected(self):
        q = JobQueue([NODE])
        job = njob(1, nodes=1)
        q.append(job)
        with pytest.raises(ValueError, match="already queued"):
            q.append(job)

    def test_indexing_matches_live_order(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1) for i in range(4)]
        for job in jobs:
            q.append(job)
        q.remove(jobs[1])
        assert q[0] is jobs[0]
        assert q[1] is jobs[2]
        assert q[-1] is jobs[3]

    def test_window_skips_removed_and_started(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1) for i in range(6)]
        for job in jobs:
            q.append(job)
        q.remove(jobs[0])
        jobs[2].start_time = 1.0  # started but (pathologically) still queued
        assert q.window(3) == [jobs[1], jobs[3], jobs[4]]

    def test_columnar_arrays_track_removals(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=i + 1, walltime=100.0 * (i + 1)) for i in range(4)]
        for job in jobs:
            q.append(job)
        reqs, wall, alive, base = q.candidate_arrays()
        np.testing.assert_array_equal(reqs[:, 0], [1, 2, 3, 4])
        np.testing.assert_array_equal(wall, [100.0, 200.0, 300.0, 400.0])
        assert alive.all()
        q.remove(jobs[2])
        assert not alive[2] and alive[[0, 1, 3]].all()  # live view updated
        assert q.job_at_slot(base + 1) is jobs[1]
        with pytest.raises(IndexError):
            q.job_at_slot(base + 2)

    def test_compaction_preserves_order_and_slots(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1 + i % 3) for i in range(900)]
        for job in jobs:
            q.append(job)
        for job in jobs[:600]:
            q.remove(job)
        q.append(njob(10_000, nodes=2))  # append triggers compaction
        live = jobs[600:] + [q[len(q) - 1]]
        assert list(q) == live
        reqs, wall, alive, base = q.candidate_arrays()
        assert alive.all()
        for i, job in enumerate(live):
            assert q.job_at_slot(q.slot_of(job)) is job
            assert reqs[q.slot_of(job) - base, 0] == job.request(NODE)

    def test_contention_totals_matches_loop(self):
        system = SystemConfig.mini_theta(nodes=16, bb_units=8)
        q = JobQueue(system.names)
        jobs = [make_job(job_id=i, nodes=1 + i % 5, bb=i % 3,
                         runtime=50.0 * (i + 1)) for i in range(20)]
        for job in jobs:
            q.append(job)
        for job in jobs[::3]:
            q.remove(job)
        caps = np.array([16.0, 8.0])
        expected = np.zeros(2)
        for job in q:
            req = np.array([job.request(n) for n in system.names], dtype=float)
            expected += (req / caps) * job.walltime
        np.testing.assert_allclose(q.contention_totals(caps), expected, rtol=1e-12)

    def test_growth_beyond_initial_capacity(self):
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1) for i in range(1000)]
        for job in jobs:
            q.append(job)
        assert len(q) == 1000
        assert q.window(3) == jobs[:3]
        assert list(q) == jobs


# -- fast path ≡ reference path ----------------------------------------------

SYSTEMS = {
    1: SystemConfig(resources=(ResourceSpec(NODE, 10),)),
    2: SystemConfig(resources=(ResourceSpec(NODE, 10), ResourceSpec(BURST_BUFFER, 6))),
    3: SystemConfig(
        resources=(
            ResourceSpec(NODE, 10),
            ResourceSpec(BURST_BUFFER, 6),
            ResourceSpec(POWER, 8),
        )
    ),
}


def script_jobs(system: SystemConfig, script) -> list[Job]:
    """Jobs from ``(gap, runtime, slack, requests...)`` rows.

    A zero gap puts the job in the same instant as its predecessor —
    a burst of arrivals with no release between them; ``slack`` is how
    far the user's walltime overshoots the runtime.
    """
    caps = [spec.units for spec in system.resources]
    jobs, clock = [], 0.0
    for i, (gap, runtime, slack, *wants) in enumerate(script):
        clock += gap
        requests = {
            name: 1 + want % cap if j == 0 else want % (cap + 1)
            for j, (name, want, cap) in enumerate(zip(system.names, wants, caps))
        }
        jobs.append(Job(i + 1, clock, float(runtime), float(runtime + slack), requests))
    return jobs


def replay_log(system, jobs, *, as_list=False, restore_at=None, window_size=4,
               sched=None):
    """Per-instance ``(now, started ids, reservation)`` of one replay
    (FCFS unless ``sched`` is given).

    The *same* :class:`EpisodeState` event loop drives both forms:
    ``as_list`` swaps the loaded state's JobQueue for the reference
    :class:`ListQueue` and re-classes the scheduler onto the
    per-candidate EASY loop (``_sched_reference.as_reference``); its
    FCFS is the identity-ranked oracle ``RankedFCFS``.
    ``restore_at`` snapshots and immediately restores the episode before
    that instance — a new queue object under the same scheduler.
    """
    state = EpisodeState(system, record_timeline=False)
    if sched is None:
        fcfs = RankedFCFS if as_list else FCFSScheduler
        sched = fcfs(window_size=window_size, backfill=True)
    state.load(jobs)
    sched.reset()
    if as_list:
        state.queue = ListQueue(system.names)
        as_reference(sched)
    log = []
    while state.advance():
        if len(log) == restore_at:
            state.restore(state.snapshot())
        ctx = state.context()
        sched.schedule(ctx)
        state.end_instance()
        reserved = sched.reserved_job
        log.append(
            (state.now, [j.job_id for j in ctx.started], reserved and reserved.job_id)
        )
    state.finish()
    return log


def _scripts(n_resources: int, max_jobs: int):
    row = st.tuples(
        st.sampled_from([0, 0, 0, 40, 250, 900]),  # gap: half the rows burst
        st.integers(50, 2000),  # runtime
        st.sampled_from([0, 0, 300, 5000]),  # walltime - runtime
        *[st.integers(0, 30)] * n_resources,
    )
    return st.lists(row, min_size=3, max_size=max_jobs)


def _check_paths_identical(data, max_jobs, monkeypatch, short_rows):
    monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
    n_resources = data.draw(st.sampled_from([1, 2, 3]))
    system = SYSTEMS[n_resources]
    jobs = script_jobs(system, data.draw(_scripts(n_resources, max_jobs)))
    # A small storage step makes compact() renumber slots (and _grow
    # reallocate the columns) inside queues of a few dozen jobs.
    monkeypatch.setattr(
        jobqueue_module, "_MIN_CAPACITY", data.draw(st.sampled_from([4, 16, 256]))
    )
    restore_at = data.draw(st.one_of(st.none(), st.integers(0, 2 * len(jobs))))
    reference = replay_log(system, jobs, as_list=True)
    assert replay_log(system, jobs) == reference
    if restore_at is not None:
        assert replay_log(system, jobs, restore_at=restore_at) == reference


@PASS_SIZES
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jobqueue_path_identical_to_list_path(short_rows, data):
    """Window + selection + reservation + EASY decisions must match the
    plain-list reference (identity-ranked FCFS, per-candidate EASY)
    exactly, instance by instance — on 1-, 2- and
    3-resource systems, with overestimated walltimes, bursts of arrivals
    with no release between them (the passes that carry rejections),
    slots renumbered mid-episode and a mid-episode snapshot/restore."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_paths_identical(data, 40, monkeypatch, short_rows)


@pytest.mark.slow
@PASS_SIZES
@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_jobqueue_path_identical_to_list_path_thorough(short_rows, data):
    """The same property at 1,000 examples and longer scripts (the
    ``slow`` tier, which CI runs on every push)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_paths_identical(data, 120, monkeypatch, short_rows)


@PASS_SIZES
@pytest.mark.parametrize("policy", ["guided", "pure-dfp", "prior"])
def test_mrsch_replay_identical_to_list_path(policy, short_rows, monkeypatch):
    """MRSch and the ``prior`` method add two columnar reads to what the
    FCFS property covers — the prior's window rows and the Eq.-1 queue
    half. The list reference (per-job prior, per-row contention terms)
    decides every instance the same, on a trace whose bursts fill the
    window and force reservations."""
    monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
    rng = np.random.default_rng(28)
    system = SYSTEMS[2]
    script = [(int(rng.choice([0, 0, 0, 600])), int(rng.integers(100, 1500)),
               int(rng.choice([0, 300])), int(rng.integers(0, 12)), int(rng.integers(0, 12)))
              for _ in range(60)]
    jobs = script_jobs(system, script)

    def build():
        if policy == "prior":
            return PriorScheduler(system, window_size=4)
        return small_mrsch(system, prior_weight=2.0 if policy == "guided" else 0.0)

    logs = [replay_log(system, jobs, as_list=as_list, sched=build())
            for as_list in (False, True)]
    assert logs[0] == logs[1]
    assert any(reserved for _, _, reserved in logs[0])


@PASS_SIZES
def test_fcfs_takes_the_head_the_ranked_oracle_serves(short_rows, monkeypatch):
    """FCFS as ``window[0]`` starts and reserves exactly what the
    identity ranking served through the window-policy adapter did, on
    the same queue form, over bursty episodes full of reservations."""
    monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
    rng = np.random.default_rng(36)
    for n_resources in (1, 2, 3):
        system = SYSTEMS[n_resources]
        script = [(int(rng.choice([0, 0, 0, 300, 900])), int(rng.integers(50, 2000)),
                   int(rng.choice([0, 0, 300, 5000])), *rng.integers(0, 30, n_resources))
                  for _ in range(120)]
        jobs = script_jobs(system, script)
        oracle = replay_log(system, jobs, sched=RankedFCFS(window_size=4))
        assert replay_log(system, jobs) == oracle
        assert sum(1 for _, _, reserved in oracle if reserved) > 20


def test_deep_queue_compacts_between_columnar_passes(monkeypatch):
    """> 600 queued jobs at the real storage step: ``compact()``
    renumbers the slots between passes, and every start matches the
    list oracle while the reservation changes hands and the episode is
    restored mid-run."""
    rng = np.random.default_rng(18)
    system = SYSTEMS[2]
    script = [(0, int(rng.integers(200, 1500)), int(rng.choice([0, 400])),
               int(rng.integers(0, 30)), int(rng.integers(0, 30)))
              for _ in range(650)]
    # then bursts of about four, slower than the machine drains: the
    # dead rows overtake the live ones while jobs still arrive
    script += [(int(rng.choice([0, 0, 0, 2400])), int(rng.integers(200, 1500)), 0,
                int(rng.integers(0, 30)), int(rng.integers(0, 30)))
               for _ in range(600)]
    jobs = script_jobs(system, script)
    reference = replay_log(system, jobs, as_list=True)
    assert len({reserved for _, _, reserved in reference if reserved}) > 10

    renumbered: list[int] = []  # storage spans a compaction moved slots in
    original_compact = JobQueue.compact

    def compact(queue):
        tail = queue._tail
        original_compact(queue)
        if queue._tail != tail:
            renumbered.append(tail)

    monkeypatch.setattr(JobQueue, "compact", compact)
    assert replay_log(system, jobs) == reference
    assert renumbered and max(renumbered) > 600
    assert replay_log(system, jobs, restore_at=700) == reference


# -- the short pass and the columnar pass ------------------------------------


class _PassKinds:
    """``[span, reserved id, kind]`` of every EASY pass, in order: kind
    is ``"walk"`` (the whole short queue), ``"columns"`` or
    ``"carried"`` (only the rows appended since the last pass)."""

    def __init__(self, monkeypatch):
        self.passes: list[list] = []
        easy = base_module.Scheduler._easy_backfill
        walk = base_module.Scheduler._walk_backfill
        columns = base_module.Scheduler._column_backfill

        def easy_spy(sched, ctx):
            self.passes.append([ctx.queue.span, sched.reserved_job.job_id, "carried"])
            easy(sched, ctx)

        def walk_spy(sched, ctx, reserved, jobs):
            if jobs is ctx.queue:
                self.passes[-1][2] = "walk"
            walk(sched, ctx, reserved, jobs)

        def columns_spy(sched, ctx, reserved):
            self.passes[-1][2] = "columns"
            columns(sched, ctx, reserved)

        monkeypatch.setattr(base_module.Scheduler, "_easy_backfill", easy_spy)
        monkeypatch.setattr(base_module.Scheduler, "_walk_backfill", walk_spy)
        monkeypatch.setattr(base_module.Scheduler, "_column_backfill", columns_spy)


def test_queue_crossing_the_short_pass_size_under_one_reservation(monkeypatch):
    """One reservation stands while three bursts push the queue past
    ``SHORT_PASS_ROWS`` and backfill starts (tombstones compacted away at
    the next arrival) bring it back under: the full passes switch between
    the walk and the column scan six times, arrivals with nothing
    started or ended in between take the carried walk, and every start
    matches the list oracle."""
    system = SYSTEMS[2]
    script = [(0, 200000, 0, 7, 0), (1, 1000, 0, 9, 0)]  # 8 of 10 nodes; all 10
    for _ in range(3):
        script += [(1, 600, 300 * (i % 3 == 0), i % 2, i % 4) for i in range(40)]
        script += [(1200, 600, 0, 0, 1)] * 20
    jobs = script_jobs(system, script)
    monkeypatch.setattr(jobqueue_module, "_MIN_CAPACITY", 8)
    reference = replay_log(system, jobs, as_list=True)

    kinds = _PassKinds(monkeypatch)
    assert replay_log(system, jobs) == reference
    assert {reserved for _, reserved, _ in kinds.passes} == {2}
    full = [(span, kind) for span, _, kind in kinds.passes if kind != "carried"]
    assert all((kind == "walk") == (span <= SHORT_PASS_ROWS) for span, kind in full)
    walks = [kind == "walk" for _, kind in full]
    switches = [(a, b) for a, b in zip(walks, walks[1:]) if a != b]
    assert switches == [(True, False), (False, True)] * 3
    assert len(full) < len(kinds.passes)


class _ShadowSpy:
    """Every ``earliest_fit_time`` / ``free_vector_at`` the pool answers."""

    def __init__(self, monkeypatch):
        self.asked: list[str] = []
        for name in ("earliest_fit_time", "free_vector_at"):
            monkeypatch.setattr(ResourcePool, name, self._wrap(name))

    def _wrap(self, name):
        original = getattr(ResourcePool, name)

        def spy(pool, *args):
            self.asked.append(name)
            return original(pool, *args)

        return spy


def _no_shadow_until_a_row_fits(monkeypatch, short_rows):
    """A queue none of whose rows fits the free units ends its pass
    before the pool's order statistics are read; once a row fits, the
    shadow and the spare are computed and the row backfills."""
    monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
    system = node_system(10)
    pool = ResourcePool(system)
    pool.allocate(njob(90, nodes=8, runtime=1000.0), 0.0)
    queue = JobQueue(system.names)
    for i, nodes in enumerate([10, 3, 5, 4]):
        queue.append(njob(i + 1, nodes=nodes, runtime=200.0))
    spy = _ShadowSpy(monkeypatch)
    sched = FCFSScheduler(window_size=4, backfill=True)
    kinds = _PassKinds(monkeypatch)

    def schedule():
        ctx = SchedulingContext(now=0.0, queue=queue, pool=pool, system=system,
                                start=lambda job: pool.allocate(job, 0.0))
        sched.schedule(ctx)
        return [job.job_id for job in ctx.started]

    assert schedule() == []
    assert sched.reserved_job.job_id == 1
    kind = "walk" if short_rows > 0 else "columns"
    assert kinds.passes == [[4, 1, kind]] and spy.asked == []
    queue.append(njob(5, nodes=2, runtime=200.0))  # ends before the shadow
    assert schedule() == [5]
    assert spy.asked == ["earliest_fit_time", "free_vector_at"]
    # nothing started or ended and the clock stood: only job 5 was tested
    assert kinds.passes == [[4, 1, kind], [5, 1, "carried"]]


def test_short_pass_asks_for_no_shadow_when_nothing_fits(monkeypatch):
    _no_shadow_until_a_row_fits(monkeypatch, SHORT_PASS_ROWS)


def test_columnar_pass_asks_for_no_shadow_when_nothing_fits(monkeypatch):
    _no_shadow_until_a_row_fits(monkeypatch, 0)


# -- the columnar pass around a standing reservation ---------------------------


class TestColumnarPassUnderOneReservation:
    """Arrivals, releases and the states around one standing
    reservation: each pass starts what the per-candidate loop would and
    asks for the shadow only when a row other than the reservation fits
    the free units. The queues here are a few rows long, so every full
    pass is forced onto the columns; an arrival with nothing started or
    ended since the last pass takes the carried walk."""

    #: (nodes, runtime) of the queued rows: the head wants 8 — shadow
    #: 900, spare 0 — and nothing behind it fits the 2 free nodes
    ROWS = [(8, 5000.0), (5, 5000.0), (4, 5000.0), (3, 400.0), (7, 5000.0)]

    @pytest.fixture
    def rig(self, monkeypatch):
        return self.build(monkeypatch, self.ROWS)

    def build(self, monkeypatch, rows):
        monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", 0)
        self.ids = itertools.count(100)  # of the arrivals
        system = node_system(10)
        pool = ResourcePool(system)
        queue = JobQueue(system.names)
        sched = FCFSScheduler(window_size=4, backfill=True)
        # 8 of 10 nodes busy: 3 until t=500, 3 until t=900, 2 until t=2000
        running = [
            njob(901, nodes=3, runtime=500.0),
            njob(902, nodes=3, runtime=900.0),
            njob(903, nodes=2, runtime=2000.0),
        ]
        for job in running:
            pool.allocate(job, 0.0)
        for i, (nodes, runtime) in enumerate(rows):
            queue.append(njob(i + 1, nodes=nodes, runtime=runtime))
        spy = _ShadowSpy(monkeypatch)

        def schedule(now, q=queue):
            ctx = SchedulingContext(
                now=now, queue=q, pool=pool, system=system,
                start=lambda job: pool.allocate(job, now),
            )
            sched.schedule(ctx)
            return [j.job_id for j in ctx.started]

        assert schedule(10.0) == []
        assert sched.reserved_job.job_id == 1
        assert spy.asked == []
        return system, pool, queue, sched, spy, schedule, running

    def arrive(self, queue, *sizes, runtime=5000.0):
        for nodes in sizes:
            queue.append(njob(next(self.ids), nodes=nodes, runtime=runtime))

    def test_arrivals_that_do_not_fit_ask_for_no_shadow(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        self.arrive(queue, 4, 9)
        assert schedule(20.0) == []
        self.arrive(queue, 3)
        assert schedule(20.0) == []
        assert schedule(30.0) == []
        assert spy.asked == []

    def test_a_newcomer_that_backfills_is_found(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        self.arrive(queue, 4, 2, 3)
        # 2 nodes for 500 s end before the shadow (900)
        queue.append(njob(50, nodes=2, runtime=500.0))
        self.arrive(queue, 1)
        assert schedule(20.0) == [50]  # the 2-node job ahead of it ends too late
        self.arrive(queue, 1)
        assert schedule(25.0) == []
        assert spy.asked == ["earliest_fit_time", "free_vector_at"]  # at t=20 only

    def test_a_release_lets_an_old_row_backfill(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        self.arrive(queue, 4)
        assert schedule(20.0) == []
        pool.release(running[2])  # 2 more free nodes, the reservation still short
        self.arrive(queue, 8)
        assert schedule(30.0) == [4]  # an *old* row (3 nodes, 400 s) now backfills
        assert sched.reserved_job.job_id == 1

    def test_more_free_units_alone_let_an_old_row_backfill(self, monkeypatch):
        """A release that *tightens* shadow and spare still loosens
        ``free``."""
        rows = [(7, 5000.0), (5, 5000.0), (4, 400.0), (7, 5000.0)]
        _, pool, queue, sched, spy, schedule, running = self.build(monkeypatch, rows)
        # head wants 7: shadow 900, spare 1. Two more free nodes bring
        # the shadow to 500 and the spare to 0.
        pool.release(running[2])
        self.arrive(queue, 9)
        assert schedule(30.0) == [3]  # 4 nodes, done by t=430

    def test_a_later_shadow_starts_nothing(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        # same free count, but the 3 nodes due at t=900 now run to t=1500
        pool.release(running[1])
        pool.allocate(njob(904, nodes=3, runtime=1500.0), 0.0)
        self.arrive(queue, 9)
        assert schedule(20.0) == []

    def test_a_larger_spare_starts_nothing(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        # same free count and shadow, but the 2 nodes held past the
        # shadow now come back before it: spare 0 -> 2
        pool.release(running[2])
        pool.allocate(njob(905, nodes=2, runtime=800.0), 0.0)
        self.arrive(queue, 9)
        assert schedule(20.0) == []
        self.arrive(queue, 9)
        assert schedule(21.0) == []

    def test_clock_reservation_or_queue_change_starts_nothing(self, rig):
        system, pool, queue, sched, spy, schedule, _ = rig
        assert schedule(5.0) == []  # the clock went back
        sched.reserved_job = queue[1]  # the reservation changed hands
        assert schedule(20.0) == []
        twin = JobQueue(system.names)  # same jobs, another queue object
        for job in queue:
            twin.append(job)
        assert schedule(20.0, twin) == []

    def test_reset_then_the_same_reservation_starts_nothing(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        reserved = sched.reserved_job
        sched.reset()
        sched.reserved_job = reserved
        assert schedule(20.0) == []


# -- the carried pass: what its guard must catch -------------------------------


class _Twin:
    """One hand-built queue and pool driven twice, instance by instance:
    by FCFS on a :class:`JobQueue` (the carried pass included) and by
    the list oracle (per-candidate EASY on a :class:`ListQueue`). Both
    hold the same job objects; a start allocates in its own pool and
    stamps nothing on the job. :meth:`schedule` asserts the two agree."""

    def __init__(self, system, running=(), window_size=4):
        self.system = system
        self.pools = [ResourcePool(system), ResourcePool(system)]
        self.scheds = [
            FCFSScheduler(window_size=window_size),
            as_reference(FCFSScheduler(window_size=window_size)),
        ]
        self.new_queues()
        self.jobs: dict[int, Job] = {}
        #: jobs holding units, in allocation order
        self.running: list[Job] = []
        for job in running:
            self.allocate(job, 0.0)

    @property
    def sched(self):
        return self.scheds[0]

    def new_queues(self):
        self.queues = [JobQueue(self.system.names), ListQueue(self.system.names)]

    def arrive(self, *jobs):
        for job in jobs:
            self.jobs[job.job_id] = job
            for queue in self.queues:
                queue.append(job)

    def withdraw(self, job):
        for queue in self.queues:
            queue.remove(job)

    def allocate(self, job, now):
        self.jobs[job.job_id] = job
        for pool in self.pools:
            pool.allocate(job, now)
        self.running.append(job)

    def release(self, job):
        for pool in self.pools:
            pool.release(job)
        self.running.remove(job)

    def reset(self):
        """Reset both schedulers, keeping their reservations."""
        for sched in self.scheds:
            reserved = sched.reserved_job
            sched.reset()
            sched.reserved_job = reserved

    def schedule(self, now) -> list[int]:
        """One instance at ``now`` on both twins: the ids started."""
        logs = []
        for pool, queue, sched in zip(self.pools, self.queues, self.scheds):
            ctx = SchedulingContext(
                now=now, queue=queue, pool=pool, system=self.system,
                start=lambda job, pool=pool: pool.allocate(job, now),
            )
            sched.schedule(ctx)
            reserved = sched.reserved_job
            logs.append(([job.job_id for job in ctx.started], reserved and reserved.job_id))
        assert logs[0] == logs[1]
        started = logs[0][0]
        self.running += [self.jobs[i] for i in started]
        return started


class TestCarriedPassGuard:
    """The carried pass under one standing reservation, every instance
    held to the list oracle. The first test is the carry itself; each
    later one makes a change between two passes that the carry must
    notice. Except for ``reset``, which only forgets, the change flips
    the verdict of an old queued row, which a carried walk — testing
    only the newest arrival, which never fits — would miss."""

    @pytest.fixture(autouse=True)
    def _pass_kinds(self, monkeypatch):
        self.kinds = _PassKinds(monkeypatch)

    def kinds_since(self, n):
        return [kind for *_, kind in self.kinds.passes[n:]]

    def test_arrivals_alone_take_the_carried_walk(self):
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=2, runtime=5000.0))
        assert twin.schedule(20.0) == []
        for t, job_id in enumerate(range(3, 7)):
            twin.arrive(njob(job_id, nodes=3))
            assert twin.schedule(30.0 + t) == []
        twin.arrive(njob(7, nodes=1, runtime=800.0))  # ends before the shadow
        assert twin.schedule(40.0) == [7]
        assert self.kinds_since(0) == ["walk"] + ["carried"] * 5
        assert twin.sched.backfill_passes == 6
        assert twin.sched.backfill_rows == 2 + 5  # the first span, then one row each

    def test_the_clock_going_back(self):
        # shadow 900, spare 0: job 2 (2 nodes, 890 s) ends at 910 from t=20
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=2, runtime=890.0))
        assert twin.schedule(20.0) == []
        twin.arrive(njob(3, nodes=9))
        n = len(self.kinds.passes)
        assert twin.schedule(5.0) == [2]  # 5 + 890 <= 900
        assert self.kinds_since(n) == ["walk"]

    def test_an_overdue_grant(self):
        """Units whose estimate has passed while they are still held (a
        hand-built context: the simulator releases a job at its END,
        never later than its walltime) count as free by then, so the
        shadow falls to the clock and the spare grows."""
        twin = _Twin(node_system(10), [njob(90, nodes=4, runtime=100.0),
                                       njob(91, nodes=4, runtime=1000.0)])
        # job 1 wants 6: shadow 100, spare 2 + 4 - 6 = 0; job 2 runs past it
        twin.arrive(njob(1, nodes=6), njob(2, nodes=2, runtime=5000.0))
        assert twin.schedule(0.0) == []
        twin.arrive(njob(3, nodes=3))
        n = len(self.kinds.passes)
        # neither grant released: shadow 1500, spare 2 + 8 - 6 = 4
        assert twin.schedule(1500.0) == [2]
        assert self.kinds_since(n) == ["walk"]

    def test_a_release_that_leaves_the_reservation_waiting(self):
        twin = _Twin(node_system(10), [njob(90, nodes=6, runtime=900.0),
                                       njob(91, nodes=2, runtime=2000.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=3, runtime=100.0))
        assert twin.schedule(20.0) == []
        twin.release(twin.running[1])  # 4 free: job 2 fits and ends first
        twin.arrive(njob(3, nodes=9))
        n = len(self.kinds.passes)
        assert twin.schedule(30.0) == [2]
        assert self.kinds_since(n) == ["walk"]

    def test_an_allocation_between_passes(self):
        """An allocation shrinks the free units, and can still let an old
        row in: one more node busy until t=2000 moves the shadow there."""
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=1, runtime=1500.0))
        assert twin.schedule(20.0) == []  # 1520 > 900, spare 0
        twin.allocate(njob(92, nodes=1, runtime=2000.0), 0.0)
        twin.arrive(njob(3, nodes=9))
        n = len(self.kinds.passes)
        assert twin.schedule(20.0) == [2]  # 1520 <= 2000
        assert self.kinds_since(n) == ["walk"]

    def test_the_reservation_changing_hands(self):
        """The reserved job leaves the queue without starting; the next
        head, which does not fit either, holds a reservation with a
        larger spare."""
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        reserved = njob(1, nodes=10)
        # under job 1: shadow 900, spare 0; under job 2: shadow 900, spare 7
        twin.arrive(reserved, njob(2, nodes=3), njob(3, nodes=2, runtime=5000.0))
        assert twin.schedule(20.0) == []
        twin.withdraw(reserved)
        twin.arrive(njob(4, nodes=9))
        n = len(self.kinds.passes)
        assert twin.schedule(30.0) == [3]
        assert twin.sched.reserved_job.job_id == 2
        assert self.kinds_since(n) == ["walk"]

    def test_reset_forgets_the_last_pass(self):
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=9))
        assert twin.schedule(20.0) == []
        twin.reset()
        assert twin.sched.backfill_passes == twin.sched.backfill_rows == 0
        twin.arrive(njob(3, nodes=9))
        n = len(self.kinds.passes)
        assert twin.schedule(20.0) == []
        assert self.kinds_since(n) == ["walk"]
        assert twin.sched.backfill_rows == 3

    def test_a_second_queue_object(self):
        """As many appends as the last queue, the same reservation: only
        the queue's identity tells them apart."""
        twin = _Twin(node_system(10), [njob(90, nodes=8, runtime=900.0)])
        reserved = njob(1, nodes=10)
        twin.arrive(reserved, njob(2, nodes=9))
        assert twin.schedule(20.0) == []
        twin.new_queues()
        twin.arrive(reserved, njob(3, nodes=2, runtime=100.0))
        n = len(self.kinds.passes)
        assert twin.schedule(20.0) == [3]
        assert self.kinds_since(n) == ["walk"]

    def test_a_second_pool_object(self):
        """Same queue, reservation and mutation count, another pool."""
        system = node_system(10)
        twin = _Twin(system, [njob(90, nodes=8, runtime=900.0)])
        twin.arrive(njob(1, nodes=10), njob(2, nodes=2, runtime=5000.0))
        assert twin.schedule(20.0) == []
        twin.pools = [ResourcePool(system), ResourcePool(system)]
        for pool in twin.pools:
            pool.allocate(njob(93, nodes=8, runtime=9000.0), 0.0)
        twin.arrive(njob(3, nodes=9))
        assert twin.pools[0].mutations == twin.sched._carry[3] == 1
        n = len(self.kinds.passes)
        assert twin.schedule(30.0) == [2]  # shadow 9000 now: 30 + 5000 fits
        assert self.kinds_since(n) == ["walk"]


def test_restore_under_a_standing_reservation_rescans(monkeypatch):
    """``EpisodeState.restore`` rebuilds the queue and restores the pool
    while a reservation stands across a run of arrivals: the instance
    after it takes a full pass instead of the carried walk, and every
    start matches the list oracle."""
    system = SYSTEMS[2]
    script = [(0, 200000, 0, 7, 0), (1, 1000, 0, 9, 0)]  # 8 of 10 nodes; all 10
    script += [(1, 600, 300 * (i % 3 == 0), i % 2, i % 4) for i in range(30)]
    jobs = script_jobs(system, script)
    reference = replay_log(system, jobs, as_list=True)
    # arrivals at t = 5..31 start nothing under job 2's reservation
    assert all(log[1:] == ([], 2) for log in reference[5:32])

    kinds = _PassKinds(monkeypatch)
    assert replay_log(system, jobs) == reference
    plain = [kind for *_, kind in kinds.passes]
    kinds.passes.clear()
    assert replay_log(system, jobs, restore_at=20) == reference
    restored = [kind for *_, kind in kinds.passes]
    assert plain.count("carried") == restored.count("carried") + 1 > 10


def _check_carry_against_oracle(data, n_steps):
    """Arrival-only instances (the clock standing or moving on, never
    back) interleaved with releases by hand, on 1–3 resources, some
    units busy from the start; clocks that pass a grant's estimate
    leave it overdue until released. Every instance matches the oracle."""
    n_resources = data.draw(st.sampled_from([1, 2, 3]))
    system = SYSTEMS[n_resources]
    caps = [spec.units for spec in system.resources]
    ids = itertools.count(1)

    def job(walltime):
        wants = data.draw(st.tuples(*[st.integers(0, 30)] * n_resources))
        requests = {
            name: 1 + want % cap if j == 0 else want % (cap + 1)
            for j, (name, want, cap) in enumerate(zip(system.names, wants, caps))
        }
        return Job(next(ids), 0.0, walltime, walltime, requests)

    twin = _Twin(system)
    for _ in range(data.draw(st.integers(0, 3))):
        running = job(float(data.draw(st.integers(50, 2000))))
        if twin.pools[0].can_fit(running):
            twin.allocate(running, 0.0)
    now = 0.0
    walltimes = st.integers(50, 2000)
    for _ in range(n_steps):
        if twin.running and data.draw(st.integers(0, 3)) == 0:
            twin.release(twin.running[data.draw(st.integers(0, len(twin.running) - 1))])
        else:
            twin.arrive(*[job(float(data.draw(walltimes)))
                          for _ in range(data.draw(st.integers(1, 2)))])
        now += data.draw(st.sampled_from([0, 0, 0, 10, 60, 400]))
        twin.schedule(now)


@PASS_SIZES
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_carried_pass_identical_to_list_path(short_rows, data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
        _check_carry_against_oracle(data, 30)


@pytest.mark.slow
@PASS_SIZES
@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_carried_pass_identical_to_list_path_thorough(short_rows, data):
    """The same property at 1,000 examples and longer runs."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(base_module, "SHORT_PASS_ROWS", short_rows)
        _check_carry_against_oracle(data, 80)
