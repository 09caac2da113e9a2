"""Tests for the incremental JobQueue and the scheduler fast paths.

The crucial property: the scheduler machinery on a :class:`JobQueue`
(the simulator's fast path) must make *identical decisions* to the
plain-list reference in ``tests/unit/_sched_reference.py`` — a list
queue under the per-candidate EASY loop — window contents, selection
order, reservation choice and every backfill admission included.
"""

from __future__ import annotations

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
from repro.core.mrsch import MRSchScheduler
from repro.core.prior import PriorScheduler
from repro.sched import jobqueue as jobqueue_module
from repro.sched.base import SchedulingContext
from repro.sched.fcfs import FCFSScheduler
from repro.sched.jobqueue import JobQueue
from repro.sim.episode import EpisodeState
from repro.workload.job import Job
from tests.conftest import make_job
from tests.unit._sched_reference import ListQueue, as_reference
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

    def test_since_view_survives_compaction(self):
        """``appended`` is a clock compaction does not renumber: the
        rows appended after a reading are the view's tail whatever
        happened to the slots before them."""
        q = JobQueue([NODE])
        jobs = [njob(i, nodes=1 + i % 3) for i in range(900)]
        for job in jobs:
            q.append(job)
        mark = q.appended
        assert mark == 900
        assert q.candidate_arrays(mark)[0].shape[0] == 0
        for job in jobs[:600]:
            q.remove(job)
        old_slot = q.slot_of(jobs[600])
        late = [njob(10_000 + i, nodes=2 + i) for i in range(3)]
        for job in late:
            q.append(job)  # the first append compacts
        assert q.slot_of(jobs[600]) != old_slot
        reqs, wall, alive, first = q.candidate_arrays(mark)
        assert [q.job_at_slot(first + i) for i in range(reqs.shape[0])] == late
        np.testing.assert_array_equal(reqs[:, 0], [2, 3, 4])
        assert q.candidate_arrays()[0].shape[0] == 303  # default: every live slot

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
    per-candidate EASY loop (``_sched_reference.as_reference``).
    ``restore_at`` snapshots and immediately restores the episode before
    that instance — a new queue object under the same scheduler.
    """
    state = EpisodeState(system, record_timeline=False)
    if sched is None:
        sched = FCFSScheduler(window_size=window_size, backfill=True)
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


def _check_paths_identical(data, max_jobs, monkeypatch):
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_jobqueue_path_identical_to_list_path(data):
    """Window + selection + reservation + EASY decisions must match the
    plain-list reference exactly, instance by instance — on 1-, 2- and
    3-resource systems, with overestimated walltimes, bursts of arrivals
    with no release between them (the passes that carry rejections),
    slots renumbered mid-episode and a mid-episode snapshot/restore."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_paths_identical(data, 40, monkeypatch)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_jobqueue_path_identical_to_list_path_thorough(data):
    """The same property at 1,000 examples and longer scripts (the
    ``slow`` tier, which CI runs on every push)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_paths_identical(data, 120, monkeypatch)


@pytest.mark.parametrize("policy", ["guided", "pure-dfp", "prior"])
def test_mrsch_replay_identical_to_list_path(policy):
    """MRSch and the ``prior`` method add two columnar reads to what the
    FCFS property covers — the prior's window rows and the Eq.-1 queue
    half. The list reference (per-job prior, per-row contention terms)
    decides every instance the same, on a trace whose bursts fill the
    window and force reservations."""
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


class _PassSpy:
    """Rows each vectorized pass examined, read off ``candidate_arrays``."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        original = JobQueue.candidate_arrays

        def spy(queue, since=0):
            out = original(queue, since)
            self.rows.append(out[0].shape[0])
            return out

        monkeypatch.setattr(JobQueue, "candidate_arrays", spy)


def test_deep_queue_compacts_between_carried_passes(monkeypatch):
    """> 600 queued jobs at the real storage step: ``compact()``
    renumbers the slots and the very next pass still scans only the
    rows appended since — and every start matches the list oracle while
    the reservation changes hands and the episode is restored mid-run."""
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

    spy = _PassSpy(monkeypatch)
    renumbered_at: list[int] = []  # passes seen when a compaction moved slots
    original_compact = JobQueue.compact

    def compact(queue):
        tail = queue._tail
        original_compact(queue)
        if queue._tail != tail:
            renumbered_at.append(len(spy.rows))

    monkeypatch.setattr(JobQueue, "compact", compact)
    assert replay_log(system, jobs) == reference
    assert max(spy.rows) > 600
    # the pass right after a renumbering examined the burst that was
    # appended, not the few hundred live rows
    assert renumbered_at and all(spy.rows[n] <= 8 for n in renumbered_at)
    assert replay_log(system, jobs, restore_at=700) == reference


# -- carried rejections: the mechanism -----------------------------------------


class TestCarriedRejections:
    """An arrival-only instance examines only the appended rows; anything
    that could loosen the state a row was rejected under forces the full
    scan."""

    #: (nodes, runtime) of the queued rows: the head wants 8 — shadow
    #: 900, spare 0 — and nothing behind it fits the 2 free nodes
    ROWS = [(8, 5000.0), (5, 5000.0), (4, 5000.0), (3, 400.0), (7, 5000.0)]

    @pytest.fixture
    def rig(self, monkeypatch):
        return self.build(monkeypatch, self.ROWS)

    def build(self, monkeypatch, rows):
        system = node_system(10)
        pool = ResourcePool(system)
        queue = JobQueue(system.names)
        sched = FCFSScheduler(window_size=4, backfill=True)
        spy = _PassSpy(monkeypatch)
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

        def schedule(now, q=queue):
            ctx = SchedulingContext(
                now=now, queue=q, pool=pool, system=system,
                start=lambda job: pool.allocate(job, now),
            )
            sched.schedule(ctx)
            return [j.job_id for j in ctx.started]

        assert schedule(10.0) == []
        assert sched.reserved_job.job_id == 1
        assert spy.rows == [len(rows)]  # the first pass scans everything
        return system, pool, queue, sched, spy, schedule, running

    def arrive(self, queue, *sizes, runtime=5000.0):
        for nodes in sizes:
            queue.append(njob(100 + queue.appended, nodes=nodes, runtime=runtime))

    def test_arrivals_only_examine_the_appended_rows(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        self.arrive(queue, 4, 9)
        assert schedule(20.0) == []
        self.arrive(queue, 3)
        assert schedule(20.0) == []
        assert schedule(30.0) == []  # nothing new: nothing examined
        assert spy.rows == [5, 2, 1, 0]

    def test_a_newcomer_that_backfills_is_found_and_the_carry_continues(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        self.arrive(queue, 4, 2, 3)
        # 2 nodes for 500 s end before the shadow (900)
        queue.append(njob(50, nodes=2, runtime=500.0))
        self.arrive(queue, 1)
        assert schedule(20.0) == [50]  # the 2-node job ahead of it ends too late
        self.arrive(queue, 1)
        assert schedule(25.0) == []
        assert spy.rows == [5, 5, 1]

    def test_a_release_forces_the_full_scan(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        self.arrive(queue, 4)
        assert schedule(20.0) == []
        pool.release(running[2])  # 2 more free nodes, the reservation still short
        self.arrive(queue, 8)
        assert schedule(30.0) == [4]  # an *old* row (3 nodes, 400 s) now backfills
        assert sched.reserved_job.job_id == 1
        assert spy.rows == [5, 1, 7]

    def test_more_free_units_alone_force_the_full_scan(self, monkeypatch):
        """A release that *tightens* shadow and spare still loosens
        ``free`` — the one condition that sees it."""
        rows = [(7, 5000.0), (5, 5000.0), (4, 400.0), (7, 5000.0)]
        _, pool, queue, sched, spy, schedule, running = self.build(monkeypatch, rows)
        # head wants 7: shadow 900, spare 1. Two more free nodes bring
        # the shadow to 500 and the spare to 0.
        pool.release(running[2])
        self.arrive(queue, 9)
        assert schedule(30.0) == [3]  # 4 nodes, done by t=430
        assert spy.rows == [4, 5]

    def test_a_later_shadow_forces_the_full_scan(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        # same free count, but the 3 nodes due at t=900 now run to t=1500
        pool.release(running[1])
        pool.allocate(njob(904, nodes=3, runtime=1500.0), 0.0)
        self.arrive(queue, 9)
        assert schedule(20.0) == []
        assert spy.rows == [5, 6]

    def test_larger_spare_forces_the_full_scan(self, rig):
        _, pool, queue, sched, spy, schedule, running = rig
        # same free count and shadow, but the 2 nodes held past the
        # shadow now come back before it: spare 0 -> 2
        pool.release(running[2])
        pool.allocate(njob(905, nodes=2, runtime=800.0), 0.0)
        self.arrive(queue, 9)
        assert schedule(20.0) == []
        assert spy.rows == [5, 6]
        self.arrive(queue, 9)
        assert schedule(21.0) == []
        assert spy.rows == [5, 6, 1]  # ...and the new, looser state is carried

    def test_clock_reservation_or_queue_change_forces_the_full_scan(self, rig):
        system, pool, queue, sched, spy, schedule, _ = rig
        assert schedule(5.0) == []  # the clock went back
        assert spy.rows == [5, 5]
        sched.reserved_job = queue[1]  # the reservation changed hands
        assert schedule(20.0) == []
        assert spy.rows == [5, 5, 5]
        twin = JobQueue(system.names)  # same jobs, another queue object
        for job in queue:
            twin.append(job)
        assert schedule(20.0, twin) == []
        assert spy.rows == [5, 5, 5, 5]

    def test_reset_starts_with_nothing_carried(self, rig):
        *_, queue, sched, spy, schedule, _ = rig
        assert sched._carried is not None
        reserved = sched.reserved_job
        sched.reset()
        assert sched._carried is None
        sched.reserved_job = reserved
        assert schedule(20.0) == []
        assert spy.rows == [5, 5]

    def test_lockstep_clone_starts_with_nothing_carried(self, mini_system):
        sched = MRSchScheduler(mini_system, window_size=5, seed=3)
        sched._carried = ("anything",)
        clone = sched.lockstep_clone()
        assert clone._carried is None
        assert FCFSScheduler().lockstep_clone() is None
