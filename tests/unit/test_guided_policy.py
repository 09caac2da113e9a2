"""Tests for the prior-guided MRSch policy and stratified replay.

The feasibility prior (``repro.core.prior``) ranks fitting jobs by
goal-weighted demand and non-fitting jobs by queue age; DFP predictions
act as a bounded tie-break. Stratified replay keeps the rare
reservation-terminal experiences visible during training.
"""

import numpy as np
import pytest

from repro.cluster.resources import ResourcePool
from repro.core.dfp import DFPAgent, Experience
from repro.sim.simulator import Simulator
from tests.conftest import make_job
from tests.unit.test_base_sched import make_ctx
from tests.unit.test_dfp import small_config
from tests.unit.test_mrsch import small_mrsch


class TestPrior:
    def test_fitting_jobs_outrank_nonfitting(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
        window = [
            make_job(job_id=1, nodes=10),  # does not fit (4 free)
            make_job(job_id=2, nodes=2),   # fits
        ]
        ctx = make_ctx(tiny_system, pool, list(window))
        sched.begin_instance(ctx)
        prior = sched._prior(window, ctx)
        assert prior[1] > prior[0]

    def test_smaller_demand_ranks_higher_among_fitting(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        window = [make_job(job_id=1, nodes=12), make_job(job_id=2, nodes=2)]
        ctx = make_ctx(tiny_system, pool, list(window))
        sched.begin_instance(ctx)
        prior = sched._prior(window, ctx)
        assert prior[1] > prior[0]

    def test_oldest_nonfitting_ranks_highest(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=16), now=0.0)
        window = [make_job(job_id=i, submit=i * 100.0, nodes=4) for i in (1, 2, 3)]
        ctx = make_ctx(tiny_system, pool, list(window), now=1000.0)
        sched.begin_instance(ctx)
        prior = sched._prior(window, ctx)
        assert prior[0] > prior[1] > prior[2]

    def test_guided_select_prefers_fitting(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=12), now=0.0)
        blocked = make_job(job_id=1, nodes=10)
        fits = make_job(job_id=2, nodes=2)
        window = [blocked, fits]
        ctx = make_ctx(tiny_system, pool, list(window))
        sched.begin_instance(ctx)
        assert sched.select(window, ctx) is fits

    def test_prior_weight_zero_uses_pure_dfp(self, tiny_system, tiny_trace):
        """prior_weight=0 runs the unguided DFP policy end to end."""
        sched = small_mrsch(tiny_system, prior_weight=0.0)
        result = Simulator(tiny_system, sched).run(tiny_trace)
        assert all(j.finished for j in result.jobs)

    def test_guided_training_decays_epsilon(self, tiny_system, tiny_trace):
        sched = small_mrsch(tiny_system)
        eps0 = sched.agent.epsilon
        sched.training = True
        sched.start_episode()
        Simulator(tiny_system, sched).run(tiny_trace)
        sched.finish_episode()
        assert sched.agent.epsilon < eps0

    def test_guided_and_pure_complete_identical_jobs(self, tiny_system, tiny_trace):
        for pw in (0.0, 2.0):
            sched = small_mrsch(tiny_system, prior_weight=pw)
            result = Simulator(tiny_system, sched).run(tiny_trace)
            assert result.metrics.n_jobs == len(tiny_trace)


class TestStratifiedReplay:
    def _fill(self, agent, n_terminal, n_regular, rng):
        for i in range(n_terminal + n_regular):
            agent.replay.append(
                Experience(
                    state=rng.random(12),
                    measurement=rng.random(2),
                    goal=rng.random(2),
                    action=i % 4,
                    target=rng.random(4),
                    terminal=i < n_terminal,
                )
            )

    def test_balanced_when_both_classes_present(self, rng):
        agent = DFPAgent(small_config(batch_size=16), rng=0)
        self._fill(agent, n_terminal=5, n_regular=100, rng=rng)
        batch = agent._sample_batch(16)
        n_term = sum(e.terminal for e in batch)
        assert n_term == 8  # half the batch despite 5% prevalence

    def test_uniform_when_single_class(self, rng):
        agent = DFPAgent(small_config(batch_size=8), rng=0)
        self._fill(agent, n_terminal=0, n_regular=20, rng=rng)
        batch = agent._sample_batch(8)
        assert len(batch) == 8
        assert not any(e.terminal for e in batch)

    def test_terminal_flag_recorded_from_scheduler(self, tiny_system):
        """A selection that cannot fit is recorded as terminal."""
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        pool.allocate(make_job(job_id=99, nodes=16, bb=8), now=0.0)
        window = [make_job(job_id=1, nodes=4)]
        ctx = make_ctx(tiny_system, pool, list(window))
        sched.training = True
        sched.start_episode()
        sched.begin_instance(ctx)
        sched.select(window, ctx)
        assert sched._steps[-1][4] is True


class TestScoreBonus:
    def test_bonus_changes_argmax(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        agent.epsilon = 0.0
        s, m, g = rng.random(12), rng.random(2), rng.random(2)
        mask = np.ones(4, dtype=bool)
        base_action = agent.act(s, m, g, mask)
        bonus = np.zeros(4)
        forced = (base_action + 1) % 4
        bonus[forced] = 1e6
        assert agent.act(s, m, g, mask, score_bonus=bonus) == forced
