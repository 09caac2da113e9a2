"""Tests for the Eq. 1 dynamic goal vector (§III-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import BURST_BUFFER, NODE, ResourceSpec, SystemConfig
from repro.core.goal import contention_terms, goal_vector
from repro.sched.jobqueue import JobQueue, RunningJobs
from tests.conftest import make_job


def _queue(system, jobs=()):
    queue = JobQueue(system.names)
    for job in jobs:
        queue.append(job)
    return queue


def _running(system, jobs=()):
    running = RunningJobs(system.names)
    for job in jobs:
        running.add(job)
    return running


def _goal(system, queued=(), running=(), now=0.0):
    return goal_vector(_queue(system, queued), _running(system, running), system, now)


def _terms(system, queued=(), running=(), now=0.0):
    return contention_terms(
        _queue(system, queued), _running(system, running), system, now
    )


class TestGoalVector:
    def test_simplex(self, tiny_system):
        queued = [make_job(job_id=1, nodes=8, bb=2, runtime=100.0)]
        g = _goal(tiny_system, queued)
        assert g.sum() == pytest.approx(1.0)
        assert np.all(g >= 0)

    def test_idle_system_uniform(self, tiny_system):
        g = _goal(tiny_system)
        np.testing.assert_allclose(g, [0.5, 0.5])

    def test_hand_computed_example(self, tiny_system):
        """One queued job: 8/16 nodes, 4/8 BB, t=100 →
        node term = 0.5*100 = 50, bb term = 0.5*100 = 50 → (0.5, 0.5).
        Second job with bb only shifts weight to bb."""
        j1 = make_job(job_id=1, nodes=8, bb=4, runtime=100.0, walltime=100.0)
        g = _goal(tiny_system, [j1])
        np.testing.assert_allclose(g, [0.5, 0.5])
        j2 = make_job(job_id=2, nodes=0, bb=8, runtime=100.0, walltime=100.0)
        g = _goal(tiny_system, [j1, j2])
        # terms: node 50, bb 50 + 100 = 150 → (0.25, 0.75)
        np.testing.assert_allclose(g, [0.25, 0.75])

    def test_running_jobs_use_remaining_walltime(self, tiny_system):
        job = make_job(job_id=1, nodes=16, bb=0, runtime=400.0, walltime=400.0)
        job.start_time = 0.0
        g_t100 = _terms(tiny_system, running=[job], now=100.0)
        g_t300 = _terms(tiny_system, running=[job], now=300.0)
        assert g_t100[0] == pytest.approx(300.0)
        assert g_t300[0] == pytest.approx(100.0)

    def test_overrun_running_job_contributes_zero(self, tiny_system):
        job = make_job(job_id=1, nodes=16, runtime=100.0, walltime=100.0)
        job.start_time = 0.0
        terms = _terms(tiny_system, running=[job], now=500.0)
        assert terms[0] == 0.0

    def test_running_without_start_rejected(self, tiny_system):
        job = make_job(job_id=1, nodes=4)
        with pytest.raises(ValueError, match="no start time"):
            _running(tiny_system, [job])

    def test_plain_lists_rejected(self, tiny_system):
        """Only the two columnar tables carry Eq. 1; a list has no columns."""
        job = make_job(job_id=1, nodes=4)
        with pytest.raises(TypeError, match="JobQueue and a RunningJobs"):
            contention_terms([job], _running(tiny_system), tiny_system, now=0.0)
        with pytest.raises(TypeError, match="JobQueue and a RunningJobs"):
            contention_terms(_queue(tiny_system), [], tiny_system, now=0.0)

    def test_tables_of_another_system_rejected(self, tiny_system):
        other = SystemConfig(resources=(ResourceSpec(NODE, 16),))
        with pytest.raises(ValueError, match="do not match"):
            contention_terms(
                _queue(other), _running(tiny_system), tiny_system, now=0.0
            )

    def test_fiercer_resource_weighted_higher(self, tiny_system):
        """BB-heavy queue → rBB > rNode (the §V-D behaviour)."""
        queued = [
            make_job(job_id=i, nodes=1, bb=6, runtime=1000.0, walltime=1000.0)
            for i in range(5)
        ]
        g = _goal(tiny_system, queued)
        bb_idx = tiny_system.names.index(BURST_BUFFER)
        assert g[bb_idx] > 0.9

    def test_three_resources(self):
        system = SystemConfig(
            resources=(
                ResourceSpec(NODE, 10),
                ResourceSpec(BURST_BUFFER, 10),
                ResourceSpec("power", 10),
            )
        )
        job = make_job(job_id=1, nodes=10, bb=5, power=5, runtime=100.0)
        g = _goal(system, [job])
        assert g.shape == (3,)
        np.testing.assert_allclose(g, [0.5, 0.25, 0.25])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 16), st.integers(0, 8), st.floats(1.0, 1e5)),
        min_size=0,
        max_size=15,
    )
)
def test_goal_simplex_property(jobs_data):
    system = SystemConfig(
        resources=(ResourceSpec(NODE, 16), ResourceSpec(BURST_BUFFER, 8))
    )
    queued = [
        make_job(job_id=i, nodes=n, bb=b, runtime=t, walltime=t)
        for i, (n, b, t) in enumerate(jobs_data)
    ]
    g = _goal(system, queued)
    assert g.shape == (2,)
    assert g.sum() == pytest.approx(1.0)
    assert np.all(g >= 0.0)


def _per_job_reference(queued, running, system, now):
    """The seed implementation's summation order: one job at a time."""
    names = system.names
    caps = [float(system.capacity(n)) for n in names]
    totals = np.zeros(len(names))
    for job in queued:
        for k, name in enumerate(names):
            totals[k] += job.request(name) / caps[k] * job.walltime
    for job in running:
        remaining = max(job.walltime - (now - job.start_time), 0.0)
        for k, name in enumerate(names):
            totals[k] += job.request(name) / caps[k] * remaining
    return totals


def _rebuilt_product(queued, running, system, now):
    """Eq. 1 as it was computed before the running table kept columns:
    rows rebuilt from the job lists at every call, one ``(P / caps).T @
    t`` product per half. The columnar tables must equal it bit for bit."""
    names = system.names
    caps = system.capacities

    def half(jobs, times):
        if not jobs:
            return np.zeros(len(names))
        rows = np.asarray([[job.request(n) for n in names] for job in jobs], dtype=float)
        return (rows / caps).T @ np.asarray(times)

    return half(queued, [job.walltime for job in queued]) + half(
        running,
        [max(job.walltime - (now - job.start_time), 0.0) for job in running],
    )


def _jobs(n, start=False):
    jobs = [
        make_job(
            job_id=100 + i,
            nodes=(i * 7) % 16,
            bb=(i * 3) % 8,
            runtime=50.0 + 13.7 * i,
            walltime=60.0 + 13.7 * i,
        )
        for i in range(n)
    ]
    if start:
        for i, job in enumerate(jobs):
            job.start_time = 5.0 * i
    return jobs


class TestSummationOrder:
    """Eq. 1 columnar convention: one float order, however the columns came."""

    def test_plain_list_and_jobqueue_bit_identical(self, tiny_system):
        """The two columnar tables evaluate the product the per-call row
        rebuild evaluated, in the same order — exact equality, which is
        what keeps every goal vector of a replay where it was."""
        queued = _jobs(9)
        running = _jobs(4, start=True)
        columnar = _terms(tiny_system, queued, running, now=30.0)
        plain = _rebuilt_product(queued, running, tiny_system, now=30.0)
        assert plain.tobytes() == columnar.tobytes()
        g_columnar = _goal(tiny_system, queued, running, now=30.0)
        g_plain = plain / plain.sum()
        assert g_plain.tobytes() == g_columnar.tobytes()

    def test_empty_queue_answers_zeros(self, tiny_system):
        queue = _queue(tiny_system, _jobs(3))
        for job in list(queue):
            queue.remove(job)
        out = queue.contention_totals(tiny_system.capacities)
        np.testing.assert_array_equal(out, [0.0, 0.0])


class TestRunningJobs:
    """The start-ordered running table and its lazily built columns."""

    def test_start_order_through_interleaved_add_remove(self, tiny_system):
        jobs = _jobs(6, start=True)
        running = RunningJobs(tiny_system.names)
        running.add(jobs[0])
        running.add(jobs[1])
        running.add(jobs[2])
        running.remove(jobs[1])
        running.add(jobs[3])
        running.remove(jobs[0])
        running.add(jobs[4])
        assert [job.job_id for job in running] == [102, 103, 104]
        assert len(running) == 3 and jobs[3] in running and jobs[0] not in running

    def test_add_and_remove_reject_misuse(self, tiny_system):
        (job,) = _jobs(1, start=True)
        running = _running(tiny_system, [job])
        with pytest.raises(ValueError, match="already running"):
            running.add(job)
        running.remove(job)
        with pytest.raises(ValueError, match="not running"):
            running.remove(job)

    def test_columns_follow_every_mutation(self, tiny_system):
        """Built early, maintained in place (and grown past its first
        allocation): after any add/remove the product equals one over a
        table built from scratch."""
        jobs = _jobs(600, start=True)
        caps = tiny_system.capacities
        early = RunningJobs(tiny_system.names)
        early.contention_totals(caps, 0.0)
        live = []
        for i, job in enumerate(jobs):
            early.add(job)
            live.append(job)
            if i % 3 == 2:
                gone = live.pop(i % len(live))
                early.remove(gone)
            late = _running(tiny_system, live)
            assert (
                early.contention_totals(caps, 150.0).tobytes()
                == late.contention_totals(caps, 150.0).tobytes()
            )
        assert [job.job_id for job in early] == [job.job_id for job in live]

    def test_other_capacities_rebuild_the_columns(self, tiny_system):
        jobs = _jobs(3, start=True)
        running = _running(tiny_system, jobs)
        halved = tiny_system.capacities / 2
        first = running.contention_totals(tiny_system.capacities, 10.0)
        second = running.contention_totals(halved, 10.0)
        np.testing.assert_allclose(second, 2 * first, rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    queued_data=st.lists(
        st.tuples(st.integers(0, 16), st.integers(0, 8), st.floats(1.0, 1e5)),
        min_size=0,
        max_size=12,
    ),
    running_data=st.lists(
        st.tuples(
            st.integers(0, 16),
            st.integers(0, 8),
            st.floats(1.0, 1e5),
            st.floats(0.0, 1e5),
            st.booleans(),
        ),
        min_size=0,
        max_size=12,
    ),
    now=st.floats(0.0, 1e5),
    early=st.booleans(),
)
def test_columnar_terms_match_per_job_loop_within_bound(
    queued_data, running_data, now, early
):
    """The columnar product may re-associate float adds, but never
    drifts from the per-job reference beyond a few ulps — the bound
    documented in :func:`repro.core.goal.contention_terms`. The running
    table's columns are built ``early`` (before any add, then kept
    through adds and removes) or late (at the call, after them); either
    way the result equals the per-call rebuild exactly."""
    system = SystemConfig(
        resources=(ResourceSpec(NODE, 16), ResourceSpec(BURST_BUFFER, 8))
    )
    queued = [
        make_job(job_id=i, nodes=n, bb=b, runtime=t, walltime=t)
        for i, (n, b, t) in enumerate(queued_data)
    ]
    table = RunningJobs(system.names)
    if early:
        table.contention_totals(system.capacities, now)
    running = []
    finished = []
    for i, (n, b, t, started, ends) in enumerate(running_data):
        job = make_job(job_id=1000 + i, nodes=n, bb=b, runtime=t, walltime=t)
        job.start_time = started
        table.add(job)
        (finished if ends else running).append(job)
    for job in finished:
        table.remove(job)
    got = contention_terms(_queue(system, queued), table, system, now=now)
    ref = _per_job_reference(queued, running, system, now)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-9)
    assert got.tobytes() == _rebuilt_product(queued, running, system, now).tobytes()
