"""Tests for the buffer-reused DFP inference paths and replay store.

Contracts pinned here:

* ``forward_scores`` and ``forward`` (``forward_infer`` is the same
  method), running every layer into the buffers it owns, are
  **bit-identical** to the allocating layer-by-layer computation in
  float64 (buffer reuse must never change a score);
* returned score arrays are safe to hold across calls (no aliasing of
  internal buffers);
* float32 or integer inputs are scored as float64;
* inference reads the live parameters, so an in-place update, an
  optimiser step or a loaded state shows in the very next score;
* the shared head's factored first layer (``SlotDense``) changed nothing
  about what a network *is*: parameter names, shapes, initial draws and
  saved files are those of a ``Dense`` over the concatenated input;
* :class:`StratifiedReplay` reproduces ``deque(maxlen)`` semantics and
  the exact stratified draws of the seed implementation.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfp import DFPAgent, DFPConfig, DFPNetwork, Experience, StratifiedReplay
from repro.nn.layers import Dense
from repro.nn.serialize import load_params, save_params
from repro.utils.rng import spawn_generators


def small_config(stream: str = "shared") -> DFPConfig:
    return DFPConfig(
        state_dim=60,
        n_measurements=2,
        n_actions=10,
        action_stream=stream,
        slot_dim=4 if stream == "shared" else None,
    )


def reference_scores(net: DFPNetwork, state, meas, goal, weights):
    """The seed-era allocating computation of ``forward_scores``."""
    c = net.config
    s = net.state_net.forward(state)
    m = net.meas_net.forward(meas)
    g = net.goal_net.forward(goal)
    joint = np.concatenate([s, m, g], axis=1)
    batch = joint.shape[0]
    exp_h = joint
    for layer in net.expectation_stream.layers[:-1]:
        exp_h = layer.forward(exp_h)
    el = net.expectation_stream.layers[-1]
    expectation = exp_h @ (el.params["W"] @ weights) + (el.params["b"] @ weights)
    al = net.action_stream.layers[-1]
    if c.action_stream == "shared":
        # The shared head's first layer as it is defined (SlotDense):
        # joint part once per row, slot part per slot, plain ``@``.
        slots = state[:, : c.n_actions * c.slot_dim].reshape(
            batch * c.n_actions, c.slot_dim
        )
        first = net.action_stream.layers[0]
        w, j = first.params["W"], first.joint_features
        act_h = slots @ w[j:] + np.repeat(
            joint @ w[:j] + first.params["b"], c.n_actions, axis=0
        )
        for layer in net.action_stream.layers[1:-1]:
            act_h = layer.forward(act_h)
        actions = (
            act_h @ (al.params["W"] @ weights) + al.params["b"] @ weights
        ).reshape(batch, c.n_actions)
    else:
        act_h = joint
        for layer in net.action_stream.layers[:-1]:
            act_h = layer.forward(act_h)
        w_fold = al.params["W"].reshape(-1, c.n_actions, c.pred_dim) @ weights
        b_fold = al.params["b"].reshape(c.n_actions, c.pred_dim) @ weights
        actions = act_h @ w_fold + b_fold
    actions = actions - actions.mean(axis=1, keepdims=True)
    return expectation[:, None] + actions


@pytest.fixture(params=["shared", "dense"])
def net_and_inputs(request):
    c = small_config(request.param)
    net = DFPNetwork(c, rng=1)
    rng = np.random.default_rng(0)
    state = rng.normal(size=(3, c.state_dim))
    meas = rng.uniform(size=(3, c.n_measurements))
    goal = rng.uniform(size=(3, c.n_measurements))
    w = np.asarray(c.temporal_weights)
    weights = (w[:, None] * goal[0][None, :]).reshape(c.pred_dim)
    return net, state, meas, goal, weights


class TestWorkspaceInference:
    def test_forward_scores_bit_identical_to_reference(self, net_and_inputs):
        net, state, meas, goal, weights = net_and_inputs
        want = reference_scores(net, state, meas, goal, weights)
        got = net.forward_scores(state, meas, goal, weights)
        np.testing.assert_array_equal(got, want)

    def test_buffer_reuse_is_stable_and_output_is_fresh(self, net_and_inputs):
        net, state, meas, goal, weights = net_and_inputs
        first = net.forward_scores(state, meas, goal, weights)
        kept = first.copy()
        second = net.forward_scores(state, meas, goal, weights)
        assert first is not second  # output arrays are never recycled
        np.testing.assert_array_equal(first, kept)  # ... nor clobbered
        np.testing.assert_array_equal(first, second)

    def test_forward_infer_matches_forward(self, net_and_inputs):
        net, state, meas, goal, _ = net_and_inputs
        np.testing.assert_array_equal(
            net.forward_infer(state, meas, goal),
            net.forward(state, meas, goal),
        )

    def test_training_forward_is_the_same_forward(self, net_and_inputs):
        """One definition: ``forward_infer`` is ``forward``, a repeated
        forward over the reused buffers agrees bit for bit, and the folded
        ``forward_scores`` stays within its 1e-12 of it."""
        net, state, meas, goal, weights = net_and_inputs
        assert DFPNetwork.forward_infer is DFPNetwork.forward
        plain = net.forward(state, meas, goal)
        np.testing.assert_array_equal(net.forward(state, meas, goal), plain)
        np.testing.assert_array_equal(net.forward_infer(state, meas, goal), plain)
        np.testing.assert_allclose(
            net.forward_scores(state, meas, goal, weights), plain @ weights,
            rtol=0, atol=1e-12,
        )

    def test_varying_batch_sizes_reuse_safely(self, net_and_inputs):
        net, state, meas, goal, weights = net_and_inputs
        for batch in (1, 3, 2, 3, 1):
            got = net.forward_scores(
                state[:batch], meas[:batch], goal[:batch], weights
            )
            want = reference_scores(
                net, state[:batch], meas[:batch], goal[:batch], weights
            )
            np.testing.assert_array_equal(got, want)

    def test_narrow_inputs_are_scored_as_float64(self, net_and_inputs):
        net, state, meas, goal, weights = net_and_inputs
        state32, meas32, goal32 = (
            a.astype(np.float32) for a in (state, meas, goal)
        )
        widened = [a.astype(np.float64) for a in (state32, meas32, goal32)]
        scores = net.forward_scores(state32, meas32, goal32, weights.astype(np.float32))
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(
            scores,
            net.forward_scores(*widened, weights.astype(np.float32).astype(np.float64)),
        )
        preds = net.forward_infer(state32, meas32, goal32)
        assert preds.dtype == np.float64
        np.testing.assert_array_equal(preds, net.forward(*widened))
        ints = np.rint(state * 3).astype(np.int64)
        np.testing.assert_array_equal(
            net.forward_scores(ints, meas, goal, weights),
            net.forward_scores(ints.astype(np.float64), meas, goal, weights),
        )

    def test_param_updates_reach_the_next_forward(self, net_and_inputs):
        """Inference reads the live parameters: an in-place update shows
        in the very next call, with nothing cached to invalidate."""
        net, state, meas, goal, weights = net_and_inputs
        before = net.forward_scores(state, meas, goal, weights).copy()
        net.forward_infer(state, meas, goal)
        for layer in net.layers:
            for value in layer.params.values():
                value *= 1.5
        after = net.forward_scores(state, meas, goal, weights)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, reference_scores(net, state, meas, goal, weights)
        )
        np.testing.assert_array_equal(
            net.forward_infer(state, meas, goal), net.forward(state, meas, goal)
        )


#: ``DFPAgent(small_config()).state_dict()`` as the tree before
#: ``SlotDense`` wrote it (``action.0.W`` is joint 256 + slot 4 rows).
PARENT_LAYOUT = {
    "state.0.W": (60, 256), "state.0.b": (256,),
    "state.2.W": (256, 128), "state.2.b": (128,),
    "state.4.W": (128, 128), "state.4.b": (128,),
    "meas.0.W": (2, 64), "meas.0.b": (64,), "meas.2.W": (64, 64), "meas.2.b": (64,),
    "goal.0.W": (2, 64), "goal.0.b": (64,), "goal.2.W": (64, 64), "goal.2.b": (64,),
    "expectation.0.W": (256, 128), "expectation.0.b": (128,),
    "expectation.2.W": (128, 8), "expectation.2.b": (8,),
    "action.0.W": (260, 128), "action.0.b": (128,),
    "action.2.W": (128, 8), "action.2.b": (8,),
    "__epsilon__": (1,),
}


class TestSharedHeadLayoutUnchanged:
    def test_state_dict_keys_and_shapes_are_the_parents(self):
        state = DFPAgent(small_config(), rng=7).state_dict()
        assert {k: v.shape for k, v in state.items()} == PARENT_LAYOUT
        assert list(state) == list(PARENT_LAYOUT)

    def test_initial_head_weights_are_the_dense_draw(self):
        net = DFPNetwork(small_config(), rng=1)
        head = Dense(256 + 4, 128, rng=spawn_generators(np.random.default_rng(1), 16)[9])
        np.testing.assert_array_equal(
            net.action_stream.layers[0].params["W"], head.params["W"]
        )
        np.testing.assert_array_equal(net.state_dict()["action.0.W"], head.params["W"])

    def test_parent_layout_file_loads_and_scores_bit_equal(self, tmp_path):
        """A weights file in the parent's layout — one ``(J + slot,
        hidden)`` tensor for the head's first layer — needs no migration."""
        rng = np.random.default_rng(3)
        arrays = {key: 0.1 * rng.normal(size=shape) for key, shape in PARENT_LAYOUT.items()}
        arrays["__epsilon__"] = np.array([0.25])
        save_params(tmp_path / "parent.npz", arrays)

        loaded = DFPAgent(small_config(), rng=0)
        loaded.load_state_dict(load_params(tmp_path / "parent.npz"))
        fed = DFPAgent(small_config(), rng=1)
        for branch, net in fed.network._branches():
            for li, layer in enumerate(net.layers):
                for name, param in layer.params.items():
                    param[...] = arrays[f"{branch}.{li}.{name}"]
        assert loaded.epsilon == 0.25
        for key, value in loaded.state_dict().items():
            np.testing.assert_array_equal(value, arrays[key])

        c = loaded.config
        state, meas, goal = rng.random(c.state_dim), rng.random(2), rng.random(2)
        np.testing.assert_array_equal(
            loaded.action_scores(state, meas, goal), fed.action_scores(state, meas, goal)
        )
        batch = (rng.random((5, c.state_dim)), rng.random((5, 2)), rng.random((5, 2)))
        np.testing.assert_array_equal(
            loaded.network.forward_infer(*batch), fed.network.forward(*batch)
        )


class TestAgentInference:
    def test_action_scores_agree_between_paths(self):
        c = small_config()
        agent = DFPAgent(c, rng=7)
        rng = np.random.default_rng(1)
        state = rng.normal(size=c.state_dim)
        meas = rng.uniform(size=c.n_measurements)
        goal = rng.uniform(size=c.n_measurements)
        single = agent.action_scores(state, meas, goal)
        batched = agent.action_scores_batch(
            state[None, :], meas[None, :], goal[None, :]
        )[0]
        np.testing.assert_allclose(single, batched, atol=1e-12)

    def test_float32_observations_act_as_float64(self):
        c = small_config()
        agent = DFPAgent(c, rng=7)
        rng = np.random.default_rng(1)
        mask = np.ones(c.n_actions, dtype=bool)
        for _ in range(20):
            obs32 = (
                rng.normal(size=c.state_dim).astype(np.float32),
                rng.uniform(size=c.n_measurements).astype(np.float32),
                rng.uniform(0.2, 0.8, size=c.n_measurements).astype(np.float32),
            )
            obs64 = [a.astype(np.float64) for a in obs32]
            scores = agent.action_scores(*obs32)
            assert scores.dtype == np.float64
            np.testing.assert_array_equal(scores, agent.action_scores(*obs64))
            assert agent.act(*obs32, mask) == agent.act(*obs64, mask)

    def test_training_step_reaches_the_next_score(self):
        """A scored agent takes an optimiser step; its next scores are
        those of a fresh agent loaded with the stepped weights."""
        c = small_config()
        agent = DFPAgent(c, rng=7)
        rng = np.random.default_rng(2)
        steps = [
            (rng.normal(size=c.state_dim), rng.uniform(size=c.n_measurements),
             rng.uniform(size=c.n_measurements), i % c.n_actions, i % 6 == 0)
            for i in range(40)
        ]
        agent.record_episode(steps, [rng.uniform(size=c.n_measurements) for _ in steps])
        state, meas, goal = steps[0][:3]
        batch = tuple(np.stack([s[k] for s in steps[:5]]) for k in range(3))
        before = agent.action_scores(state, meas, goal).copy()
        before_batch = agent.action_scores_batch(*batch).copy()
        agent.train_batch()
        twin = DFPAgent(c, rng=0)
        twin.load_state_dict(agent.state_dict())
        after = agent.action_scores(state, meas, goal)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, twin.action_scores(state, meas, goal))
        after_batch = agent.action_scores_batch(*batch)
        assert not np.array_equal(before_batch, after_batch)
        np.testing.assert_array_equal(after_batch, twin.action_scores_batch(*batch))

    def test_load_state_dict_reaches_the_next_score(self):
        c = small_config()
        agent, other = DFPAgent(c, rng=7), DFPAgent(c, rng=8)
        rng = np.random.default_rng(3)
        state = rng.normal(size=c.state_dim)
        meas = rng.uniform(size=c.n_measurements)
        goal = rng.uniform(size=c.n_measurements)
        before = agent.action_scores(state, meas, goal).copy()
        agent.load_state_dict(other.state_dict())
        after = agent.action_scores(state, meas, goal)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, other.action_scores(state, meas, goal))


# -- StratifiedReplay ---------------------------------------------------------


def make_exp(i: int, terminal: bool) -> Experience:
    return Experience(
        state=np.array([float(i)]),
        measurement=np.array([0.0]),
        goal=np.array([1.0]),
        action=i % 3,
        target=np.zeros(1),
        terminal=terminal,
    )


class TestStratifiedReplay:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            StratifiedReplay(0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=300),
           st.integers(1, 80))
    def test_matches_deque_semantics(self, terminals, capacity):
        replay = StratifiedReplay(capacity)
        reference: deque = deque(maxlen=capacity)
        for i, terminal in enumerate(terminals):
            e = make_exp(i, terminal)
            replay.append(e)
            reference.append(e)
            assert len(replay) == len(reference)
        assert list(replay) == list(reference)
        for i in range(len(reference)):
            assert replay[i] is reference[i]
        # The strata must equal filtering the reference buffer.
        term = [e for e in reference if e.terminal]
        reg = [e for e in reference if not e.terminal]
        assert [replay.terminal_at(i) for i in range(replay.n_terminal)] == term
        assert [replay.regular_at(i) for i in range(replay.n_regular)] == reg

    def test_indexing_bounds(self):
        replay = StratifiedReplay(4)
        for i in range(3):
            replay.append(make_exp(i, False))
        assert replay[-1].state[0] == 2.0
        with pytest.raises(IndexError):
            replay[3]
        with pytest.raises(IndexError):
            replay[-4]

    def test_agent_sampling_is_deterministic_and_stratified(self):
        """Same seed → same draws; both strata present in the batch."""
        def build():
            agent = DFPAgent(small_config(), rng=42)
            for i in range(50):
                agent.replay.append(make_exp(i, terminal=(i % 7 == 0)))
            return agent

        a, b = build(), build()
        batch_a = a._sample_batch(16)
        batch_b = b._sample_batch(16)
        assert [e.state[0] for e in batch_a] == [e.state[0] for e in batch_b]
        assert sum(e.terminal for e in batch_a) == 8  # half the batch
