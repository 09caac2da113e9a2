"""Episodes replay one ``Simulator.run`` each, and training runs them in turn.

Every evaluation and training episode is one sequential replay through
``Scheduler.schedule``. These tests hold that path to its contracts: a
replay depends on nothing but the scheduler's seed and its jobs (not on
the replays a simulator ran before), a finished simulator is freed by
reference counting alone, and ``train_episodes`` learns after each
episode and hands the scheduler back in inference mode.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.mrsch import MRSchScheduler
from repro.core.training import train_episodes
from repro.sched.fcfs import FCFSScheduler
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


def _mrsch(system, prior_weight=2.0):
    return MRSchScheduler(system, window_size=5, seed=3, prior_weight=prior_weight)


class TestSequentialDecisionIdentity:
    @staticmethod
    def _replayed_twice(mini_system, jobsets, prior_weight):
        """Two same-seed schedulers over every job set, outcomes asserted
        equal; the second scheduler's (decisions, scored) per episode."""
        first = Simulator(mini_system, _mrsch(mini_system, prior_weight))
        expected = [_outcome(first.run(jobs)) for jobs in jobsets]
        sched = _mrsch(mini_system, prior_weight)
        again = Simulator(mini_system, sched)
        counts = []
        for jobs, outcome in zip(jobsets, expected):
            assert _outcome(again.run(jobs)) == outcome
            counts.append((sched.decisions, sched.decisions_scored))
        return counts

    def test_mrsch_replays_are_reproducible(self, mini_system, jobsets):
        counts = self._replayed_twice(mini_system, jobsets, 2.0)
        assert sum(made for made, _ in counts) > 0

    def test_pure_dfp_replays_are_reproducible(self, mini_system, jobsets):
        """The paper's policy scores every window of two or more jobs:
        enough network decisions for the identity to have been at stake."""
        counts = self._replayed_twice(mini_system, jobsets, 0.0)
        assert sum(scored for _, scored in counts) >= 60

    def test_a_replay_does_not_depend_on_the_one_before(self, mini_system, jobsets):
        """A simulator that replayed other job sets first gives the last
        one exactly what a fresh simulator and scheduler give it."""
        fresh = _outcome(Simulator(mini_system, _mrsch(mini_system)).run(jobsets[-1]))
        sim = Simulator(mini_system, _mrsch(mini_system))
        for jobs in jobsets[:-1]:
            sim.run(jobs)
        assert _outcome(sim.run(jobsets[-1])) == fresh

    def test_results_list_every_submitted_job(self, mini_system, jobsets):
        sim = Simulator(mini_system, _mrsch(mini_system))
        for jobs in jobsets[:3]:
            result = sim.run(jobs)
            assert [j.job_id for j in result.jobs] == sorted(
                job.job_id for job in jobs
            )

    def test_rerun_reuses_the_simulator(self, mini_system, jobsets):
        """The episode state is recycled across runs."""
        sim = Simulator(mini_system, _mrsch(mini_system))
        state = sim.state
        first = [_outcome(sim.run(jobs)) for jobs in jobsets[:4]]
        again = [_outcome(sim.run(jobs)) for jobs in jobsets[:4]]
        assert again == first
        assert sim.state is state

    def test_a_finished_run_is_freed_without_the_cycle_collector(
        self, mini_system, jobsets
    ):
        """The simulator holds the agent (23 MB of weights at Theta): a
        reference cycle left by ``run`` would keep every finished cell's
        copy until a full collection — the peak RSS of back-to-back cells.
        A scheduling context kept on the episode is one such cycle: its
        ``start`` is the episode's bound ``start_job``."""
        freed = _freed_by_refcount(
            Simulator(mini_system, _mrsch(mini_system)), jobsets[0]
        )
        assert freed


def _freed_by_refcount(sim: Simulator, jobs) -> bool:
    """Run ``sim`` once and report whether, once dropped, it, its episode
    state, its pool, its scheduler and the scheduler's agent (if any)
    die with the cycle collector off. The caller must keep no reference
    of its own to any of them (nor pass ``sim`` inside an ``assert``:
    pytest's rewrite keeps the argument)."""
    gc.collect()
    gc.disable()
    try:
        sim.run(jobs)
        parts = [sim, sim.state, sim.pool, sim.scheduler]
        if hasattr(sim.scheduler, "agent"):
            parts.append(sim.scheduler.agent)
        refs = [weakref.ref(obj) for obj in parts]
        del sim, parts
        return [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


class TestHeuristicReplays:
    def test_a_finished_fcfs_run_is_freed_without_the_cycle_collector(
        self, mini_system, jobsets
    ):
        freed = _freed_by_refcount(
            Simulator(mini_system, FCFSScheduler(window_size=5)), jobsets[0]
        )
        assert freed

    def test_fcfs_rerun_on_one_simulator_equals_fresh_simulators(
        self, mini_system, jobsets
    ):
        expected = [
            _outcome(Simulator(mini_system, FCFSScheduler(window_size=5)).run(jobs))
            for jobs in jobsets[:4]
        ]
        sim = Simulator(mini_system, FCFSScheduler(window_size=5))
        assert [_outcome(sim.run(jobs)) for jobs in jobsets[:4]] == expected


class TestSequentialTraining:
    def test_sequential_collection_trains(self, mini_system, jobsets):
        """Losses stay finite, ε decays, and the scheduler comes back in
        inference mode."""
        sched = _mrsch(mini_system)
        result = train_episodes(sched, [list(js) for js in jobsets[:4]], mini_system)
        assert result.episodes == 4
        assert all(np.isfinite(loss) for loss in result.losses)
        assert sched.training is False
        assert sched.agent.epsilon < sched.agent.config.epsilon_start

    def test_same_seed_trains_identically(self, mini_system, jobsets):
        sets = [list(js) for js in jobsets[:3]]
        ra = train_episodes(_mrsch(mini_system), sets, mini_system)
        rb = train_episodes(_mrsch(mini_system), sets, mini_system)
        assert ra.losses == rb.losses
        assert ra.epsilons == rb.epsilons

    def test_untrainable_scheduler_rejected(self, mini_system, jobsets):
        with pytest.raises(TypeError, match="not trainable"):
            train_episodes(FCFSScheduler(window_size=5), [jobsets[0]], mini_system)
