"""EpisodeState / ResourcePool snapshot-restore round trips.

Forking an episode leans on one invariant: restoring a snapshot puts
*everything* an episode's decisions depend on — pool arrays, dirty
trackers, incremental encoder buffers, the waiting queue, the event
heap, per-job mutable fields — back bit-exactly. These tests
pin that invariant both property-style (random allocate/release/clock
histories) and end-to-end (a forked mid-run episode replays to the same
result twice).
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import (
    BURST_BUFFER,
    NODE,
    ResourcePool,
    ResourceSpec,
    SystemConfig,
)
from repro.sched.fcfs import FCFSScheduler
from repro.sched.jobqueue import RunningJobs
from repro.sim.episode import EpisodeState
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace
from tests.conftest import make_job

SYSTEM = SystemConfig(
    resources=(ResourceSpec(NODE, 16, "node"), ResourceSpec(BURST_BUFFER, 8, "TB"))
)


def _pool_fingerprint(pool: ResourcePool, now: float) -> tuple:
    """Every observable the schedulers and encoders read off a pool."""
    parts = [tuple(pool.free_vector().tolist()), tuple(sorted(pool.running_jobs()))]
    for name in pool.config.names:
        busy, est = pool.unit_arrays(name)
        parts.append((name, busy.tobytes(), est.tobytes()))
        state_busy, state_est = pool.unit_state(name, now)
        parts.append((state_busy.tobytes(), state_est.tobytes()))
    return tuple(parts)


# Each history step: (kind, size, clock delta). ``kind`` allocates a
# fresh job, releases the oldest live one, or just advances the clock.
_steps = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "release", "tick"]),
        st.integers(1, 12),
        st.floats(0.0, 500.0),
    ),
    min_size=1,
    max_size=30,
)


class TestPoolSnapshotRestore:
    @settings(max_examples=40, deadline=None)
    @given(pre=_steps, post=_steps)
    def test_random_history_round_trip(self, pre, post):
        """snapshot → divergent future → restore ≡ the snapshot point."""
        pool = ResourcePool(SYSTEM)
        tracker = pool.register_tracker()
        tracker.drain()  # start the tracker clean, as an encoder would

        live: list = []
        clock = [0.0]
        ids = iter(range(1, 1000))

        def apply(steps):
            for kind, size, dt in steps:
                clock[0] += dt
                if kind == "alloc":
                    job = make_job(
                        job_id=next(ids), nodes=size, bb=size % 8, runtime=100.0
                    )
                    if pool.can_fit(job):
                        pool.allocate(job, clock[0])
                        live.append(job)
                elif kind == "release" and live:
                    pool.release(live.pop(0))

        apply(pre)
        frozen = _pool_fingerprint(pool, clock[0])
        snap = pool.snapshot()
        saved_clock, saved_live = clock[0], list(live)

        apply(post)  # drive the pool somewhere else entirely
        pool.restore(snap)
        clock[0], live = saved_clock, saved_live

        assert _pool_fingerprint(pool, clock[0]) == frozen
        # The restore marks every tracker dirty: the next drain must
        # demand a full rebuild, never a stale incremental patch.
        assert tracker.drain() is None
        # The restored pool keeps working: release everything live.
        for job in live:
            pool.release(job)
        assert pool.running_jobs() == []

    def test_restore_preserves_array_identity(self):
        """In-place restore — encoder attachments bind by identity."""
        pool = ResourcePool(SYSTEM)
        before = {name: pool.unit_arrays(name) for name in SYSTEM.names}
        snap = pool.snapshot()
        pool.allocate(make_job(job_id=1, nodes=4, bb=2), 10.0)
        pool.restore(snap)
        for name in SYSTEM.names:
            busy, est = pool.unit_arrays(name)
            assert busy is before[name][0]
            assert est is before[name][1]


def _episode_fingerprint(state: EpisodeState) -> tuple:
    return (
        state.now,
        state.n_instances,
        tuple(job.job_id for job in state.queue),
        tuple(job.job_id for job in state.running),
        tuple((j.job_id, j.start_time, j.end_time) for j in state.jobs),
        state.events.snapshot()[1],
        _pool_fingerprint(state.pool, state.now),
    )


def _finish(scheduler, state: EpisodeState) -> tuple:
    """Drive a loaded episode to its end; fully-resolved outcome, with
    the pool's utilization at every instance."""
    utilizations = []
    while state.advance():
        scheduler.schedule(state.context())
        utilizations.append(state.pool.utilizations().tobytes())
        state.end_instance()
    result = state.finish()
    return (
        [(j.job_id, j.start_time, j.end_time) for j in result.jobs],
        result.metrics.full_dict(),
        result.n_scheduling_instances,
        b"".join(utilizations),
    )


class TestEpisodeSnapshotRestore:
    @pytest.fixture()
    def trace(self):
        cfg = ThetaTraceConfig(total_nodes=32, n_jobs=60, mean_interarrival=120.0)
        return generate_theta_trace(cfg, seed=13)

    @pytest.mark.parametrize("fork_at", [1, 7, 23])
    def test_forked_replay_is_bit_identical(self, mini_system, trace, fork_at):
        """Run to an instance, snapshot, finish, restore, finish again —
        both futures must be the same future."""
        sched = FCFSScheduler(window_size=5)
        state = EpisodeState(mini_system)
        state.load(trace)
        sched.reset()
        for _ in range(fork_at):
            assert state.advance()
            sched.schedule(state.context())
            state.end_instance()
        snap = state.snapshot()
        at_fork = _episode_fingerprint(state)

        first = _finish(sched, state)
        state.restore(snap)
        assert _episode_fingerprint(state) == at_fork
        # Replay the restored tail under a fresh scheduler: FCFS's only
        # cross-instance state (the backfill reservation) is re-derived
        # from the restored queue/pool on the next instance.
        sched2 = FCFSScheduler(window_size=5)
        sched2.reset()
        assert _finish(sched2, state) == first

    def test_restore_rebuilds_queue_in_submission_order(self, mini_system):
        jobs = [
            make_job(job_id=i, submit=0.0, nodes=20, runtime=50.0) for i in (3, 1, 2)
        ]
        state = EpisodeState(mini_system)
        state.load(jobs)
        assert state.advance()  # all submit at t=0; only job 1 fits
        sched = FCFSScheduler(window_size=5)
        sched.reset()
        sched.schedule(state.context())
        state.end_instance()
        snap = state.snapshot()
        order = [job.job_id for job in state.queue]
        state.restore(snap)
        assert [job.job_id for job in state.queue] == order == [2, 3]


class TestEpisodeLifecycle:
    """``load`` / ``advance`` / ``end_instance`` / ``finish`` on one episode."""

    @staticmethod
    def _jobs():
        # Two jobs share t=0; job 3's submit coincides with job 1's end.
        return [
            make_job(job_id=3, submit=100.0, runtime=40.0, nodes=2),
            make_job(job_id=2, submit=0.0, runtime=50.0, nodes=4, bb=1),
            make_job(job_id=1, submit=0.0, runtime=100.0, nodes=8),
        ]

    def test_load_copies_the_callers_jobs_in_submission_order(self):
        jobs = self._jobs()
        state = EpisodeState(SYSTEM)
        state.load(jobs)
        assert [job.job_id for job in state.jobs] == [1, 2, 3]
        assert not any(copy is job for copy in state.jobs for job in jobs)
        state.run_to_completion(FCFSScheduler(window_size=5))
        assert all(job.start_time is None and job.end_time is None for job in jobs)

    def test_one_instance_per_distinct_event_time(self):
        state = EpisodeState(SYSTEM)
        state.load(self._jobs())
        times = []
        while state.advance():
            times.append(state.now)
            FCFSScheduler(window_size=5).schedule(state.context())
            state.end_instance()
        # Submits at 0 and 100, ends at 50, 100 and 140: four instants.
        assert times == [0.0, 50.0, 100.0, 140.0]
        assert state.finish().n_scheduling_instances == len(times)

    def test_load_resets_a_finished_episode(self):
        state = EpisodeState(SYSTEM)
        pool = state.pool
        state.load(self._jobs())
        first = state.run_to_completion(FCFSScheduler(window_size=5))
        assert first.makespan == 140.0
        state.load([make_job(job_id=9, submit=5.0, runtime=10.0)])
        assert state.pool is pool
        assert (state.now, state.n_instances) == (0.0, 0)
        assert len(state.queue) == 0 and len(state.running) == 0
        assert pool.running_jobs() == []
        assert pool.utilizations().tolist() == [0.0, 0.0]
        second = state.run_to_completion(FCFSScheduler(window_size=5))
        assert (second.makespan, second.n_scheduling_instances) == (15.0, 2)

    def test_finish_rejects_unfinished_jobs(self):
        state = EpisodeState(SYSTEM)
        state.load(self._jobs())
        assert state.advance()
        FCFSScheduler(window_size=5).schedule(state.context())
        state.end_instance()
        with pytest.raises(RuntimeError, match="unfinished jobs"):
            state.finish()

    def test_an_empty_episode_finishes_at_time_zero(self):
        state = EpisodeState(SYSTEM)
        state.load([])
        assert not state.advance()
        result = state.finish()
        assert (result.jobs, result.makespan, result.n_scheduling_instances) == ([], 0.0, 0)

    @pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
    def test_every_context_carries_the_record_flag(self, record):
        state = EpisodeState(SYSTEM, record_timeline=record)
        state.load(self._jobs())
        assert state.advance()
        ctx = state.context()
        assert ctx.record_timeline is record
        assert (ctx.now, ctx.pool, ctx.queue) == (0.0, state.pool, state.queue)

    def test_restore_rewinds_the_clock_and_instance_count(self):
        state = EpisodeState(SYSTEM)
        state.load(self._jobs())
        sched = FCFSScheduler(window_size=5)
        for _ in range(2):
            assert state.advance()
            sched.schedule(state.context())
            state.end_instance()
        snap = state.snapshot()
        state.run_to_completion(sched)
        assert (state.now, state.n_instances) == (140.0, 4)
        state.restore(snap)
        assert (state.now, state.n_instances) == (50.0, 2)
        assert [job.job_id for job in state.running] == [1]

    def test_a_snapshot_does_not_follow_the_live_episode(self):
        state = EpisodeState(SYSTEM)
        state.load(self._jobs())
        sched = FCFSScheduler(window_size=5)
        assert state.advance()
        sched.schedule(state.context())
        state.end_instance()
        snap = state.snapshot()
        frozen = copy.deepcopy(snap)
        state.run_to_completion(sched)
        assert snap["now"] == frozen["now"] and snap["jobs"] == frozen["jobs"]
        assert snap["queue"] == frozen["queue"] and snap["running"] == frozen["running"]
        for name in SYSTEM.names:
            assert snap["pool"]["busy"][name].tobytes() == frozen["pool"]["busy"][name].tobytes()


class TestRunningTable:
    """``EpisodeState.running`` is one start-ordered :class:`RunningJobs`."""

    @pytest.fixture()
    def trace(self):
        cfg = ThetaTraceConfig(total_nodes=32, n_jobs=60, mean_interarrival=120.0)
        return generate_theta_trace(cfg, seed=13)

    def _run_to(self, state, sched, instances, read_goal=False):
        for _ in range(instances):
            assert state.advance()
            ctx = state.context()
            assert ctx.running is state.running
            if read_goal:
                state.running.contention_totals(state.system.capacities, state.now)
            sched.schedule(ctx)
            state.end_instance()

    @pytest.mark.parametrize("read_goal", [False, True])
    def test_start_order_survives_snapshot_restore(self, mini_system, trace, read_goal):
        state = EpisodeState(mini_system)
        state.load(trace)
        sched = FCFSScheduler(window_size=5)
        sched.reset()
        self._run_to(state, sched, 12, read_goal)
        order = [job.job_id for job in state.running]
        starts = [job.start_time for job in state.running]
        assert len(order) > 2 and starts == sorted(starts)
        caps = mini_system.capacities
        totals = state.running.contention_totals(caps, state.now + 50.0)
        snap = state.snapshot()
        self._run_to(state, sched, 10, read_goal)
        assert [job.job_id for job in state.running] != order
        state.restore(snap)
        assert [job.job_id for job in state.running] == order
        restored = state.running.contention_totals(caps, state.now + 50.0)
        assert restored.tobytes() == totals.tobytes()

    @pytest.mark.parametrize("method", ["heuristic", "optimization", "scalar_rl", "mrsch"])
    def test_only_a_policy_reading_eq1_builds_the_columns(self, method, monkeypatch):
        """FCFS, GA and scalar-RL never read Eq. 1, so a replay under
        them pays for the running dict and never for the columns."""
        from repro.experiments.harness import ExperimentConfig, make_method
        from repro.sched.ga import NSGA2Config
        from repro.sim.simulator import Simulator
        from repro.workload.suites import build_workload

        builds = []
        build = RunningJobs._build

        def spy(self, caps):
            builds.append(len(self))
            build(self, caps)

        monkeypatch.setattr(RunningJobs, "_build", spy)
        config = ExperimentConfig(
            nodes=32, bb_units=16, n_jobs=40, seed=5,
            ga_config=NSGA2Config(population=4, generations=2),
        )
        system = config.system()
        jobs = build_workload(
            "S3", generate_theta_trace(config.trace_config(), seed=5), system, seed=5
        )
        sched = make_method(method, system, config)
        result = Simulator(system, sched).run(jobs)
        assert len(result.jobs) == 40
        if method == "mrsch":
            assert builds == [0]  # once per episode, at its first instance
        else:
            assert builds == []
