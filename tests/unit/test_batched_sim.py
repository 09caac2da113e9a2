"""BatchedSimulator: lockstep N-episode replay vs N sequential runs.

The substrate's contract is decision identity: batching is an execution
strategy, never a policy change. These tests hold N≥8 lockstep MRSch
episodes to the exact start times, instance counts and metric values of
the per-episode path, exercise the sequential fallback for schedulers
without the split decision protocol, and smoke the opt-in batched
training collection.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.mrsch import MRSchScheduler
from repro.core.training import train_episodes
from repro.sched.fcfs import FCFSScheduler
from repro.sim.batched import BatchedSimulator
from repro.sim.simulator import Simulator
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

N_EPISODES = 8


@pytest.fixture(scope="module")
def jobsets():
    return [
        generate_theta_trace(
            ThetaTraceConfig(total_nodes=32, n_jobs=40, mean_interarrival=150.0),
            seed=100 + i,
        )
        for i in range(N_EPISODES)
    ]


def _outcome(result) -> tuple:
    """Fully-resolved episode outcome for exact comparison."""
    return (
        [(j.job_id, j.start_time, j.end_time) for j in result.jobs],
        result.metrics.full_dict(),
        result.n_scheduling_instances,
    )


class TestLockstepDecisionIdentity:
    @staticmethod
    def _lockstep_after_sequential(mini_system, jobsets, prior_weight):
        """Both runs, outcomes asserted equal; the lockstep simulator."""

        def build():
            return MRSchScheduler(
                mini_system, window_size=5, seed=3, prior_weight=prior_weight
            )

        sim = Simulator(mini_system, build())
        expected = [_outcome(sim.run(jobs)) for jobs in jobsets]
        batched = BatchedSimulator.for_scheduler(mini_system, build(), N_EPISODES)
        results = batched.run(jobsets)
        assert [_outcome(r) for r in results] == expected
        return batched

    def test_mrsch_lockstep_equals_sequential(self, mini_system, jobsets):
        batched = self._lockstep_after_sequential(mini_system, jobsets, 2.0)
        # The lockstep run actually batched: fewer calls than rows. Under
        # the guided policy only windows the prior leaves open get here.
        assert batched.scored_rows > batched.batch_calls > 0

    def test_pure_dfp_lockstep_equals_sequential(self, mini_system, jobsets):
        """The paper's policy scores every window of two or more jobs:
        enough stacked rows for the identity to have been at stake."""
        batched = self._lockstep_after_sequential(mini_system, jobsets, 0.0)
        assert batched.scored_rows > batched.batch_calls > 0
        assert batched.scored_rows >= 60

    def test_batch_of_one_is_bit_identical(self, mini_system, jobsets):
        sequential = MRSchScheduler(mini_system, window_size=5, seed=3)
        expected = _outcome(Simulator(mini_system, sequential).run(jobsets[0]))
        solo = BatchedSimulator.for_scheduler(
            mini_system, MRSchScheduler(mini_system, window_size=5, seed=3), 1
        )
        assert _outcome(solo.run([jobsets[0]])[0]) == expected
        # A batch of one always rides the policy's own B=1 scoring path.
        assert solo.batch_calls == 0

    def test_results_follow_episode_order(self, mini_system, jobsets):
        batched = BatchedSimulator.for_scheduler(
            mini_system, MRSchScheduler(mini_system, window_size=5, seed=3), 3
        )
        results = batched.run(jobsets[:3])
        for jobs, result in zip(jobsets[:3], results):
            assert [j.job_id for j in result.jobs] == sorted(
                job.job_id for job in jobs
            )

    def test_rerun_reuses_the_simulator(self, mini_system, jobsets):
        """Episode states and staging buffers are recycled across runs."""
        batched = BatchedSimulator.for_scheduler(
            mini_system, MRSchScheduler(mini_system, window_size=5, seed=3), 4
        )
        first = [_outcome(r) for r in batched.run(jobsets[:4])]
        again = [_outcome(r) for r in batched.run(jobsets[:4])]
        assert again == first

    def test_a_finished_run_is_freed_without_the_cycle_collector(
        self, mini_system, jobsets
    ):
        """Lanes hold the agent (23 MB of weights at Theta): a reference
        cycle left by ``run`` would keep every finished cell's copy until
        a full collection — the peak RSS of back-to-back cells."""
        batched = BatchedSimulator.for_scheduler(
            mini_system, MRSchScheduler(mini_system, window_size=5, seed=3), 3
        )
        gc.collect()
        gc.disable()
        try:
            batched.run(jobsets[:3])
            gone = weakref.ref(batched._episodes[0].sim)
            del batched
            assert gone() is None
        finally:
            gc.enable()


class TestFallbackAndValidation:
    def test_non_split_scheduler_falls_back_sequentially(self, mini_system, jobsets):
        """FCFS never yields: lockstep degrades to per-episode replay
        with identical decisions and zero batched calls."""
        sim = Simulator(mini_system, FCFSScheduler(window_size=5))
        expected = [_outcome(sim.run(jobs)) for jobs in jobsets[:4]]
        batched = BatchedSimulator(
            mini_system, [FCFSScheduler(window_size=5) for _ in range(4)]
        )
        assert [_outcome(r) for r in batched.run(jobsets[:4])] == expected
        assert batched.batch_calls == 0 and batched.scored_rows == 0

    def test_for_scheduler_rejects_unclonable_policies(self, mini_system):
        with pytest.raises(ValueError, match="lockstep"):
            BatchedSimulator.for_scheduler(
                mini_system, FCFSScheduler(window_size=5), 4
            )

    def test_jobset_count_must_match_episodes(self, mini_system, jobsets):
        batched = BatchedSimulator.for_scheduler(
            mini_system, MRSchScheduler(mini_system, window_size=5, seed=3), 4
        )
        with pytest.raises(ValueError, match="jobsets"):
            batched.run(jobsets[:3])

    def test_needs_at_least_one_scheduler(self, mini_system):
        with pytest.raises(ValueError):
            BatchedSimulator(mini_system, [])


class TestBatchedTraining:
    def test_lockstep_collection_trains(self, mini_system, jobsets):
        """Opt-in batched training: losses stay finite, ε decays, and
        the scheduler comes back in inference mode."""
        sched = MRSchScheduler(mini_system, window_size=5, seed=3)
        result = train_episodes(
            sched, [list(js) for js in jobsets[:4]], mini_system, batch_episodes=4
        )
        assert result.episodes == 4
        assert all(np.isfinite(loss) for loss in result.losses)
        assert sched.training is False
        assert sched.agent.epsilon < sched.agent.config.epsilon_start

    def test_batch_episodes_one_matches_sequential_training(
        self, mini_system, jobsets
    ):
        """batch_episodes=1 is literally the sequential trainer."""
        a = MRSchScheduler(mini_system, window_size=5, seed=3)
        b = MRSchScheduler(mini_system, window_size=5, seed=3)
        sets = [list(js) for js in jobsets[:3]]
        ra = train_episodes(a, sets, mini_system, batch_episodes=1)
        rb = train_episodes(b, sets, mini_system)
        assert ra.losses == rb.losses
        assert ra.epsilons == rb.epsilons

    def test_untrainable_scheduler_rejected(self, mini_system, jobsets):
        with pytest.raises(TypeError, match="not trainable"):
            train_episodes(
                FCFSScheduler(window_size=5), [jobsets[0]], mini_system,
                batch_episodes=2,
            )
