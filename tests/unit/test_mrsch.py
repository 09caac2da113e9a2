"""Tests for MRSchScheduler."""

import numpy as np
import pytest

from repro.cluster.resources import ResourcePool
from repro.core.dfp import DFPConfig
from repro.core.mrsch import MRSchScheduler
from repro.sim.episode import EpisodeState
from repro.sim.simulator import Simulator
from tests.conftest import make_job
from tests.unit.test_base_sched import make_ctx


def small_mrsch(system, window_size=4, seed=0, **kwargs):
    job_dim = 2 * system.n_resources + 2  # augmented §III-A layout
    encoder_dim = job_dim * window_size + 2 * sum(
        system.capacity(n) for n in system.names
    )
    cfg = DFPConfig(
        state_dim=encoder_dim,
        n_measurements=system.n_resources,
        n_actions=window_size,
        slot_dim=job_dim,
        offsets=(1, 2),
        temporal_weights=(0.5, 1.0),
        state_hidden=(16, 8),
        state_out=8,
        module_hidden=8,
        module_out=8,
        stream_hidden=8,
        batch_size=8,
        train_batches_per_episode=4,
    )
    return MRSchScheduler(system, window_size=window_size, dfp_config=cfg,
                          seed=seed, **kwargs)


class TestConstruction:
    def test_mismatched_config_rejected(self, tiny_system):
        cfg = DFPConfig(state_dim=99, n_measurements=2, n_actions=4, slot_dim=6)
        with pytest.raises(ValueError, match="state_dim"):
            MRSchScheduler(tiny_system, window_size=4, dfp_config=cfg)

    def test_mismatched_actions_rejected(self, tiny_system):
        dim = 6 * 4 + 2 * 24  # the encoder's state_dim for W=4
        cfg = DFPConfig(state_dim=dim, n_measurements=2, n_actions=7, slot_dim=6)
        with pytest.raises(ValueError, match="n_actions"):
            MRSchScheduler(tiny_system, window_size=4, dfp_config=cfg)

    def test_unknown_state_module(self, tiny_system):
        with pytest.raises(ValueError, match="state_module"):
            MRSchScheduler(tiny_system, state_module="transformer")

    def test_cnn_variant_builds(self, tiny_system):
        sched = MRSchScheduler(tiny_system, window_size=4, state_module="cnn", seed=1)
        assert sched.state_module == "cnn"


class TestScheduling:
    def test_select_returns_window_job(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        window = [make_job(job_id=i, nodes=1) for i in (1, 2, 3)]
        ctx = make_ctx(tiny_system, pool, list(window))
        sched.begin_instance(ctx)
        assert sched.select(window, ctx) in window

    def test_goal_logged_per_instance(self, tiny_system):
        sched = small_mrsch(tiny_system)
        pool = ResourcePool(tiny_system)
        queue = [make_job(job_id=1, nodes=2, bb=1)]
        sched.schedule(make_ctx(tiny_system, pool, queue, now=5.0))
        times, goals = sched.goal_series()
        assert times.tolist() == [5.0]
        assert goals.shape == (1, 2)
        assert goals.sum() == pytest.approx(1.0)

    def test_reset_clears_goal_log(self, tiny_system):
        sched = small_mrsch(tiny_system)
        sched.goal_log = [(0.0, np.array([0.5, 0.5]))]
        sched.reset()
        assert sched.goal_log == []

    def test_empty_goal_series(self, tiny_system):
        sched = small_mrsch(tiny_system)
        times, goals = sched.goal_series()
        assert times.size == 0
        assert goals.shape == (0, 2)

    def test_full_simulation(self, tiny_system, tiny_trace):
        sched = small_mrsch(tiny_system)
        result = Simulator(tiny_system, sched).run(tiny_trace)
        assert result.metrics.n_jobs == len(tiny_trace)
        assert all(j.finished for j in result.jobs)


class TestOneInstanceBody:
    """``Simulator.run`` is the instance loop and nothing more: an episode
    stepped by hand — advance, ``schedule``, end the instance — starts
    and reserves exactly what the simulator's replay does."""

    @staticmethod
    def stepped(system, trace):
        sched = small_mrsch(system, prior_weight=0.0)  # every window open
        state = EpisodeState(system, record_timeline=False)
        state.load(trace)
        sched.reset()
        while state.advance():
            sched.schedule(state.context())
            state.end_instance()
        result = state.finish()
        return [(j.job_id, j.start_time) for j in result.jobs], sched.decisions_scored

    def test_stepped_episode_and_simulator_start_the_same_jobs(self, tiny_system):
        # three bursts of six onto 16 nodes / 8 burst-buffer units: full
        # windows, reservations and backfill at every burst
        trace = [
            make_job(job_id=i + 1, submit=300.0 * (i // 6), runtime=150.0 + 70 * (i % 5),
                     walltime=900.0, nodes=3 + (i * 5) % 10, bb=(i * 3) % 6)
            for i in range(18)
        ]
        stepped, scored = self.stepped(tiny_system, trace)
        assert scored > 0  # the network really decided
        sim = Simulator(tiny_system, small_mrsch(tiny_system, prior_weight=0.0))
        result = sim.run(trace)
        assert [(j.job_id, j.start_time) for j in result.jobs] == stepped


class TestEpisodes:
    def test_no_experience_outside_training(self, tiny_system, tiny_trace):
        sched = small_mrsch(tiny_system)
        Simulator(tiny_system, sched).run(tiny_trace)
        assert sched._steps == []
        assert len(sched.agent.replay) == 0

    def test_training_collects_and_learns(self, tiny_system, tiny_trace):
        sched = small_mrsch(tiny_system)
        sched.training = True
        sched.start_episode()
        Simulator(tiny_system, sched).run(tiny_trace)
        assert len(sched._steps) > 0
        loss = sched.finish_episode()
        assert np.isfinite(loss)
        assert len(sched.agent.replay) > 0
        assert sched._steps == []

    def test_finish_without_steps(self, tiny_system):
        sched = small_mrsch(tiny_system)
        assert sched.finish_episode() == 0.0

    def test_epsilon_decays_during_training(self, tiny_system, tiny_trace):
        sched = small_mrsch(tiny_system)
        eps0 = sched.agent.epsilon
        sched.training = True
        sched.start_episode()
        Simulator(tiny_system, sched).run(tiny_trace)
        assert sched.agent.epsilon < eps0


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_system, tiny_trace, tmp_path):
        a = small_mrsch(tiny_system, seed=1)
        path = tmp_path / "agent.npz"
        a.save(path)
        b = small_mrsch(tiny_system, seed=2)
        b.load(path)
        ra = Simulator(tiny_system, a).run(tiny_trace)
        rb = Simulator(tiny_system, b).run(tiny_trace)
        assert [j.start_time for j in ra.jobs] == [j.start_time for j in rb.jobs]
