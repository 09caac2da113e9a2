"""Tests for the DFP network and agent."""

import tracemalloc

import numpy as np
import pytest

from repro.core.dfp import DFPAgent, DFPConfig, DFPNetwork
from repro.nn.serialize import load_params, save_params


def small_config(**overrides) -> DFPConfig:
    defaults = dict(
        state_dim=12,
        n_measurements=2,
        n_actions=4,
        offsets=(1, 2),
        temporal_weights=(0.5, 1.0),
        state_hidden=(16, 8),
        state_out=8,
        module_hidden=8,
        module_out=8,
        stream_hidden=8,
        batch_size=8,
        train_batches_per_episode=4,
        slot_dim=3,  # 4 actions × 3 slot features fit the 12-dim state
    )
    defaults.update(overrides)
    return DFPConfig(**defaults)


class TestBatchedScores:
    """Pins the batched replay path the offline evaluator relies on."""

    @pytest.mark.parametrize("stream", ["shared", "dense"])
    def test_action_scores_batch_matches_forward_scores(self, rng, stream):
        """Batched scoring (full forward + per-row contraction) must
        agree with the folded per-state fast path within float
        re-association noise, even when every row carries a different
        goal."""
        agent = DFPAgent(small_config(action_stream=stream), rng=7)
        n = 16
        states = rng.normal(size=(n, 12))
        measurements = rng.uniform(size=(n, 2))
        goals = rng.uniform(0.1, 1.0, size=(n, 2))
        goals /= goals.sum(axis=1, keepdims=True)

        batched = agent.action_scores_batch(states, measurements, goals)
        assert batched.shape == (n, 4)
        for i in range(n):
            per_state = agent.network.forward_scores(
                states[i : i + 1],
                measurements[i : i + 1],
                goals[i : i + 1],
                agent.objective_weights(goals[i]),
            )[0]
            np.testing.assert_allclose(
                batched[i], per_state, rtol=0.0, atol=1e-12
            )

    def test_action_scores_batch_matches_action_scores(self, rng):
        agent = DFPAgent(small_config(), rng=3)
        states = rng.normal(size=(5, 12))
        measurements = rng.uniform(size=(5, 2))
        goal = np.array([0.3, 0.7])
        goals = np.tile(goal, (5, 1))
        batched = agent.action_scores_batch(states, measurements, goals)
        for i in range(5):
            single = agent.action_scores(states[i], measurements[i], goal)
            np.testing.assert_allclose(batched[i], single, rtol=0.0, atol=1e-12)


class TestConfig:
    def test_pred_dim(self):
        cfg = small_config()
        assert cfg.pred_dim == 4  # 2 measurements × 2 offsets

    def test_offsets_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            small_config(offsets=(1, 2, 3))

    def test_offsets_must_increase(self):
        with pytest.raises(ValueError):
            small_config(offsets=(2, 1))

    def test_offsets_positive(self):
        with pytest.raises(ValueError):
            small_config(offsets=(0, 1))

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            small_config(epsilon_min=0.5, epsilon_start=0.1)
        with pytest.raises(ValueError):
            small_config(epsilon_decay=0.0)

    def test_dimensions_positive(self):
        with pytest.raises(ValueError):
            small_config(state_dim=0)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("batch_size", -3), ("train_batches_per_episode", -1),
         ("lr", 0.0), ("lr", -1e-3), ("grad_clip", 0.0), ("grad_clip", -1.0),
         # a NaN grad_clip once switched clipping off: norm > nan is false
         ("lr", float("nan")), ("lr", float("inf")),
         ("grad_clip", float("nan")), ("grad_clip", float("inf"))],
    )
    def test_training_sizes_validated(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})
        assert small_config(train_batches_per_episode=0).train_batches_per_episode == 0

    def test_paper_scale(self):
        cfg = DFPConfig.paper_scale(state_dim=11404, n_measurements=2, n_actions=10)
        assert cfg.state_hidden == (4000, 1000)
        assert cfg.state_out == 512
        assert cfg.module_hidden == 128


class TestNetwork:
    def test_forward_shape(self, rng):
        cfg = small_config()
        net = DFPNetwork(cfg, rng=rng)
        out = net.forward(
            rng.random((3, 12)), rng.random((3, 2)), rng.random((3, 2))
        )
        assert out.shape == (3, 4, 4)  # (B, actions, pred_dim)

    def test_dueling_decomposition(self, rng):
        """Mean over actions equals the expectation stream output — the
        action stream is normalised to zero mean."""
        cfg = small_config()
        net = DFPNetwork(cfg, rng=rng)
        s, m, g = rng.random((2, 12)), rng.random((2, 2)), rng.random((2, 2))
        preds = net.forward(s, m, g)
        so = net.state_net.forward(s)
        mo = net.meas_net.forward(m)
        go = net.goal_net.forward(g)
        joint = np.concatenate([so, mo, go], axis=1)
        expectation = net.expectation_stream.forward(joint)
        np.testing.assert_allclose(preds.mean(axis=1), expectation, atol=1e-12)

    def test_goal_changes_nothing_without_goal_branch_weights(self, rng):
        """Different goals yield different predictions (goal is an input)."""
        cfg = small_config()
        net = DFPNetwork(cfg, rng=rng)
        s, m = rng.random((1, 12)), rng.random((1, 2))
        a = net.forward(s, m, np.array([[1.0, 0.0]]))
        b = net.forward(s, m, np.array([[0.0, 1.0]]))
        assert not np.allclose(a, b)

    def test_backward_gradcheck(self, rng):
        """End-to-end finite-difference check through branches + streams."""
        cfg = small_config(state_hidden=(6, 5), state_out=4, module_hidden=4,
                           module_out=3, stream_hidden=5)
        net = DFPNetwork(cfg, rng=rng)
        s, m, g = rng.random((2, 12)), rng.random((2, 2)), rng.random((2, 2))
        w = rng.normal(size=(2, cfg.n_actions, cfg.pred_dim))

        def scalar():
            return float((net.forward(s, m, g) * w).sum())

        net.forward(s, m, g)
        net.backward(w)
        eps = 1e-6
        for layer in net.layers:
            for name, param in layer.params.items():
                flat_idx = np.unravel_index(
                    np.argmax(np.abs(layer.grads[name])), param.shape
                )
                orig = param[flat_idx]
                param[flat_idx] = orig + eps
                up = scalar()
                param[flat_idx] = orig - eps
                dn = scalar()
                param[flat_idx] = orig
                numeric = (up - dn) / (2 * eps)
                assert layer.grads[name][flat_idx] == pytest.approx(
                    numeric, rel=1e-3, abs=1e-6
                )

    def test_custom_state_module_requires_out_dim(self, rng):
        from repro.nn.layers import Dense
        from repro.nn.network import Sequential

        cfg = small_config()
        module = Sequential([Dense(12, 8, rng=rng)])
        with pytest.raises(ValueError):
            DFPNetwork(cfg, rng=rng, state_module=module)
        net = DFPNetwork(cfg, rng=rng, state_module=module, state_module_out=8)
        out = net.forward(rng.random((1, 12)), rng.random((1, 2)), rng.random((1, 2)))
        assert out.shape == (1, 4, 4)

    def test_state_dict_roundtrip(self, rng):
        cfg = small_config()
        a = DFPNetwork(cfg, rng=np.random.default_rng(1))
        b = DFPNetwork(cfg, rng=np.random.default_rng(2))
        s, m, g = rng.random((1, 12)), rng.random((1, 2)), rng.random((1, 2))
        assert not np.allclose(a.forward(s, m, g), b.forward(s, m, g))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.forward(s, m, g), b.forward(s, m, g))


class TestWeightsAtFirstUse:
    """Each layer draws from its own spawned generator when first read."""

    def test_read_order_does_not_change_the_weights(self):
        forward, backward = DFPNetwork(small_config(), rng=5), DFPNetwork(small_config(), rng=5)
        for layer in forward.layers:
            layer.params
        for layer in reversed(backward.layers):
            layer.params
        expected = forward.state_dict()
        for key, value in backward.state_dict().items():
            np.testing.assert_array_equal(value, expected[key])

    def test_untrained_theta_scheduler_draws_no_weights(self):
        from repro.cluster.resources import SystemConfig
        from repro.core.mrsch import MRSchScheduler

        system = SystemConfig.theta()
        MRSchScheduler(system)  # first-use imports and caches stay out
        tracemalloc.start()
        try:
            sched = MRSchScheduler(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Drawing its 3,051,536 parameters at construction peaks near 24 MiB.
        assert peak < 2 * 2**20
        assert sched.agent.network.parameter_count() == 3_051_536


class TestAgentActing:
    def test_objective_weights(self):
        agent = DFPAgent(small_config(), rng=0)
        w = agent.objective_weights(np.array([0.3, 0.7]))
        # offsets weights (0.5, 1.0) ⊗ goal (0.3, 0.7)
        np.testing.assert_allclose(w, [0.15, 0.35, 0.3, 0.7])
        # Memoised per goal and read-only: no caller can poison the memo.
        assert agent.objective_weights(np.array([0.3, 0.7])) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        np.testing.assert_allclose(
            agent.objective_weights(np.array([0.6, 0.4])), [0.3, 0.2, 0.6, 0.4]
        )

    def test_act_respects_mask(self, rng):
        agent = DFPAgent(small_config(), rng=3)
        agent.epsilon = 0.0
        mask = np.array([False, True, False, True])
        for _ in range(10):
            a = agent.act(rng.random(12), rng.random(2), rng.random(2), mask)
            assert a in (1, 3)

    def test_act_explore_respects_mask(self, rng):
        agent = DFPAgent(small_config(epsilon_min=1.0, epsilon_start=1.0), rng=3)
        mask = np.array([True, False, False, False])
        for _ in range(20):
            a = agent.act(rng.random(12), rng.random(2), rng.random(2), mask,
                          explore=True)
            assert a == 0

    def test_no_valid_action_raises(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        with pytest.raises(ValueError):
            agent.act(rng.random(12), rng.random(2), rng.random(2),
                      np.zeros(4, dtype=bool))

    def test_epsilon_decays_only_when_exploring(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        eps0 = agent.epsilon
        agent.act(rng.random(12), rng.random(2), rng.random(2),
                  np.ones(4, dtype=bool), explore=False)
        assert agent.epsilon == eps0
        agent.act(rng.random(12), rng.random(2), rng.random(2),
                  np.ones(4, dtype=bool), explore=True)
        assert agent.epsilon == pytest.approx(eps0 * agent.config.epsilon_decay)

    def test_epsilon_floor(self, rng):
        agent = DFPAgent(small_config(epsilon_min=0.5), rng=0)
        agent.epsilon = 0.5001
        for _ in range(10):
            agent.act(rng.random(12), rng.random(2), rng.random(2),
                      np.ones(4, dtype=bool), explore=True)
        assert agent.epsilon == pytest.approx(0.5)

    def test_greedy_picks_argmax_of_goal_weighted_scores(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        agent.epsilon = 0.0
        s, m, g = rng.random(12), rng.random(2), np.array([0.4, 0.6])
        scores = agent.action_scores(s, m, g)
        a = agent.act(s, m, g, np.ones(4, dtype=bool))
        assert a == int(np.argmax(scores))


class TestAgentLearning:
    def test_build_targets_shapes_and_values(self):
        agent = DFPAgent(small_config(), rng=0)
        ms = [np.array([0.0, 0.0]), np.array([0.1, 0.2]),
              np.array([0.3, 0.1]), np.array([0.5, 0.4])]
        targets = agent.build_targets(ms)
        assert targets.shape == (4, 4)
        # step 0, offset 1: m1 - m0
        np.testing.assert_allclose(targets[0, :2], [0.1, 0.2])
        # step 0, offset 2: m2 - m0
        np.testing.assert_allclose(targets[0, 2:], [0.3, 0.1])
        # step 3 (last): future clamps to final measurement → zeros
        np.testing.assert_allclose(targets[3], 0.0)
        # step 2, offset 2 clamps to last: m3 - m2
        np.testing.assert_allclose(targets[2, 2:], [0.2, 0.3])

    def test_build_targets_empty(self):
        agent = DFPAgent(small_config(), rng=0)
        assert agent.build_targets([]).shape == (0, 4)

    def test_record_episode_fills_replay(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        steps = [(rng.random(12), rng.random(2), rng.random(2), i % 4, i % 3 == 0)
                 for i in range(6)]
        ms = [rng.random(2) for _ in range(6)]
        agent.record_episode(steps, ms)
        assert len(agent.replay) == 6

    def test_record_episode_length_mismatch(self, rng):
        agent = DFPAgent(small_config(), rng=0)
        with pytest.raises(ValueError):
            agent.record_episode([(rng.random(12), rng.random(2), rng.random(2), 0)], [])

    def test_replay_capacity_bounded(self, rng):
        agent = DFPAgent(small_config(replay_capacity=10), rng=0)
        steps = [(rng.random(12), rng.random(2), rng.random(2), 0, False)
                 for _ in range(25)]
        ms = [rng.random(2) for _ in range(25)]
        agent.record_episode(steps, ms)
        assert len(agent.replay) == 10

    def test_train_batch_empty_replay(self):
        agent = DFPAgent(small_config(), rng=0)
        assert agent.train_batch() == 0.0

    def test_train_epoch_zero_batches_takes_no_step(self, rng):
        """An explicit 0 is a count, not "unset" (it used to run the
        configured ``train_batches_per_episode``)."""
        agent = DFPAgent(small_config(), rng=0)
        steps = [(rng.random(12), rng.random(2), rng.random(2), i % 4, False)
                 for i in range(16)]
        agent.record_episode(steps, [rng.random(2) for _ in steps])
        before = agent.state_dict()
        assert agent.train_epoch(0) == 0.0
        assert agent.optimizer.steps == 0
        for key, value in agent.state_dict().items():
            np.testing.assert_array_equal(value, before[key])
        assert agent.train_epoch() > 0.0  # unset: the configured count
        assert agent.optimizer.steps == agent.config.train_batches_per_episode

    def test_training_reduces_loss_on_fixed_task(self, rng):
        """Regression sanity: repeated updates on a fixed replay buffer
        drive the masked MSE down."""
        agent = DFPAgent(small_config(lr=3e-3), rng=0)
        steps = [(rng.random(12), rng.random(2), rng.random(2), i % 4, i % 3 == 0)
                 for i in range(32)]
        ms = [np.array([i / 32, 1 - i / 32]) for i in range(32)]
        agent.record_episode(steps, ms)
        first = np.mean([agent.train_batch() for _ in range(5)])
        for _ in range(150):
            agent.train_batch()
        last = np.mean([agent.train_batch() for _ in range(5)])
        assert last < first

    def test_load_rejects_keys_no_parameter_consumes(self):
        """A checkpoint of another architecture raises, naming what it
        could not place, and leaves the agent as it was."""
        agent = DFPAgent(small_config(), rng=1)
        before = agent.state_dict()
        state = DFPAgent(small_config(), rng=2).state_dict()
        state["action.7.W"] = np.zeros((8, 4))
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match=r"action\.7\.W, bogus"):
            agent.load_state_dict(state)
        for key, value in agent.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_state_dict_roundtrip_with_epsilon(self, rng):
        a = DFPAgent(small_config(), rng=1)
        a.epsilon = 0.123
        b = DFPAgent(small_config(), rng=2)
        b.load_state_dict(a.state_dict())
        assert b.epsilon == pytest.approx(0.123)
        s, m, g = rng.random(12), rng.random(2), rng.random(2)
        np.testing.assert_allclose(a.action_scores(s, m, g), b.action_scores(s, m, g))


class TestTrainingStepStorage:
    """The training step runs on storage it keeps; what it hands out
    stays the caller's."""

    @staticmethod
    def _agent() -> DFPAgent:
        # The first state layer is 1.2 MiB, so every weight-sized
        # temporary of the step (gradient product, Adam terms, clip
        # squares) is far above the pin's 64 KiB. The batch is small so
        # that NumPy's own iteration buffer — min(8192, size) doubles,
        # borrowed by each broadcast bias add — stays well below it.
        config = DFPConfig(state_dim=600, n_measurements=2, n_actions=4,
                           batch_size=8, stream_hidden=64)
        agent = DFPAgent(config, rng=4)
        rng = np.random.default_rng(8)
        steps = [(rng.random(600), rng.random(2), rng.random(2), i % 4, i % 6 == 0)
                 for i in range(48)]
        agent.record_episode(steps, [rng.random(2) for _ in steps])
        return agent

    def test_steady_state_batch_allocates_no_large_array(self):
        agent = self._agent()
        agent.train_batch()
        agent.train_batch()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            agent.train_batch()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The allocating step peaks near 5 MiB here.
        assert peak - before < 64 * 1024

    def test_inference_forward_returns_a_fresh_array(self, rng):
        agent = self._agent()
        s, m, g = rng.random((8, 600)), rng.random((8, 2)), rng.random((8, 2))
        kept = agent.network.forward(s, m, g)
        snapshot = kept.copy()
        agent.train_batch()
        again = agent.network.forward(s + 1.0, m, g)
        assert not np.shares_memory(kept, again)
        np.testing.assert_array_equal(kept, snapshot)

    @pytest.mark.parametrize("stream", ["shared", "dense"])
    def test_scoring_between_batches_changes_nothing(self, stream):
        """Scoring and training run through the same layer buffers:
        scoring one decision (B=1) and a batch (B=8) before every
        minibatch leaves every loss, weight and Adam moment of 20
        batches bit-equal to a twin that never scores, and a score kept
        across a minibatch is unchanged."""
        config = small_config(action_stream=stream)
        rng = np.random.default_rng(5)
        steps = [(rng.random(12), rng.random(2), rng.random(2), i % 4, i % 6 == 0)
                 for i in range(48)]
        future = [rng.random(2) for _ in steps]
        plain, scored = DFPAgent(config, rng=4), DFPAgent(config, rng=4)
        for agent in (plain, scored):
            agent.record_episode(steps, future)
        one = steps[0][:3]
        batch = tuple(np.stack([step[k] for step in steps[:8]]) for k in range(3))

        losses = []
        for _ in range(20):
            scored.action_scores(*one)
            scored.action_scores_batch(*batch)
            losses.append(scored.train_batch())
        assert losses == [plain.train_batch() for _ in range(20)]
        for layer, twin in zip(scored.network.layers, plain.network.layers, strict=True):
            for name in layer.params:
                np.testing.assert_array_equal(layer.params[name], twin.params[name])
        moments, twin_moments = scored.optimizer, plain.optimizer
        assert moments._m.keys() == twin_moments._m.keys()
        for key in moments._m:
            np.testing.assert_array_equal(moments._m[key], twin_moments._m[key])
            np.testing.assert_array_equal(moments._v[key], twin_moments._v[key])

        kept = scored.network.forward_scores(*batch, scored.objective_weights(one[2]))
        snapshot = kept.copy()
        scored.train_batch()
        np.testing.assert_array_equal(kept, snapshot)

    def test_save_load_then_continue_is_uninterrupted_training(self, tmp_path):
        straight, resumed = self._agent(), self._agent()
        for agent in (straight, resumed):
            for _ in range(3):
                agent.train_batch()
        save_params(tmp_path / "agent.npz", resumed.state_dict())
        resumed.load_state_dict(load_params(tmp_path / "agent.npz"))
        assert [straight.train_batch() for _ in range(3)] == [
            resumed.train_batch() for _ in range(3)
        ]
        for key, value in straight.state_dict().items():
            np.testing.assert_array_equal(resumed.state_dict()[key], value)

    def test_load_mid_training_then_step_moves_the_loaded_arrays(self):
        """``load_state_dict`` copies into the arrays the optimiser's
        prebuilt views point at, so the next step trains what was loaded."""
        agent, donor = self._agent(), DFPAgent(self._agent().config, rng=9)
        arrays = [p for layer in agent.network.layers for p in layer.params.values()]
        for _ in range(2):
            agent.train_batch()
        loaded = donor.network.state_dict()
        agent.load_state_dict(loaded)
        agent.train_batch()
        now = [p for layer in agent.network.layers for p in layer.params.values()]
        assert all(a is b for a, b in zip(arrays, now, strict=True))
        for key, value in agent.network.state_dict().items():
            assert not np.array_equal(value, loaded[key]), key
            np.testing.assert_allclose(value, loaded[key], rtol=0, atol=0.01)
