"""Finite-difference gradient verification for every layer and network.

The hand-written backward passes are the foundation of the whole agent;
each is checked against central finite differences on both inputs and
parameters. The training step reuses its storage and skips the input
gradient of branch-first layers; ``_nn_reference.py`` keeps the
allocating step it replaced, and the twin-run tests at the bottom hold
the two bit-identical.

The shared action head's first layer (``SlotDense``) is the one place a
training step's sums are associated differently from the layout it
replaced (one GEMM over the concatenated ``joint ⊕ slot`` rows):
``TestSlotDense`` checks its gradients against finite differences and
``TestFactoredHeadBudget`` pins how far it may sit from the concatenated
form — the fourth row of README's reassociation table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Conv1D, Dense, Flatten, LeakyReLU, SlotDense
from repro.core.dfp import DFPAgent, DFPConfig, DFPNetwork, Experience
from repro.nn.network import Sequential
from repro.sched.scalar_rl import ScalarRLScheduler
from repro.sim.simulator import Simulator
from tests.unit._nn_reference import (
    as_concatenating,
    as_reference,
    concatenated_head,
    concatenated_rows,
)

EPS = 1e-6
TOL = 1e-5


def numeric_grad(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of scalar f with respect to array x."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + EPS
        f_plus = f()
        x[idx] = orig - EPS
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * EPS)
        it.iternext()
    return grad


def check_input_grad(layer, x: np.ndarray, seed: int = 0) -> None:
    """Verify d(w·y)/dx for a random projection w."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=layer.forward(x.copy()).shape)

    def scalar() -> float:
        return float((layer.forward(x) * w).sum())

    layer.forward(x)
    analytic = layer.backward(w)
    numeric = numeric_grad(scalar, x)
    np.testing.assert_allclose(analytic, numeric, atol=TOL, rtol=1e-4)


def check_param_grads(layer, x: np.ndarray, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=layer.forward(x).shape)

    def scalar() -> float:
        return float((layer.forward(x) * w).sum())

    layer.forward(x)
    layer.backward(w)
    for name, param in layer.params.items():
        numeric = numeric_grad(scalar, param)
        np.testing.assert_allclose(
            layer.grads[name], numeric, atol=TOL, rtol=1e-4, err_msg=name
        )


class TestLayerGradients:
    def test_dense_input_and_params(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        check_input_grad(layer, x)
        check_param_grads(layer, x)

    def test_conv1d_input_and_params(self, rng):
        layer = Conv1D(2, 3, kernel_size=3, stride=2, rng=rng)
        x = rng.normal(size=(2, 9, 2))
        check_input_grad(layer, x)
        check_param_grads(layer, x)

    def test_conv1d_stride_one(self, rng):
        layer = Conv1D(1, 2, kernel_size=2, stride=1, rng=rng)
        x = rng.normal(size=(3, 6, 1))
        check_input_grad(layer, x)
        check_param_grads(layer, x)

    @pytest.mark.parametrize("alpha", [0.0, 0.07, 1.0], ids=["flat", "leaky", "identity"])
    def test_activation_gradients(self, alpha, rng):
        layer = LeakyReLU(alpha)
        # Offset from 0 to dodge the kink where FD is ill-defined.
        x = rng.normal(size=(4, 6)) + 0.3 * np.sign(rng.normal(size=(4, 6)))
        x[np.abs(x) < 0.05] = 0.1
        check_input_grad(layer, x)

    def test_flatten_gradient(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4))
        check_input_grad(layer, x)


class TestNetworkGradients:
    def test_mlp_end_to_end(self, rng):
        net = Sequential(
            [Dense(5, 8, rng=rng), LeakyReLU(0.1), Dense(8, 3, rng=rng), LeakyReLU(0.3)]
        )
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(4, 3))

        def scalar() -> float:
            return float((net.forward(x) * w).sum())

        net.forward(x)
        analytic_x = net.backward(w)
        np.testing.assert_allclose(
            analytic_x, numeric_grad(scalar, x), atol=TOL, rtol=1e-4
        )
        for layer in net.layers:
            for name, param in layer.params.items():
                np.testing.assert_allclose(
                    layer.grads[name],
                    numeric_grad(scalar, param),
                    atol=TOL,
                    rtol=1e-4,
                )

    def test_cnn_pipeline(self, rng):
        net = Sequential(
            [
                Conv1D(1, 2, kernel_size=3, stride=2, rng=rng),
                LeakyReLU(0.1),
                Flatten(),
                Dense(8, 2, rng=rng),
            ]
        )
        x = rng.normal(size=(2, 9, 1))
        w = rng.normal(size=(2, 2))

        def scalar() -> float:
            return float((net.forward(x) * w).sum())

        net.forward(x)
        analytic_x = net.backward(w)
        np.testing.assert_allclose(
            analytic_x, numeric_grad(scalar, x), atol=TOL, rtol=1e-4
        )


class TestInputGradSkipped:
    def test_disabled_input_grad_keeps_parameter_grads(self, rng):
        seed = int(rng.integers(1 << 30))
        full = Dense(6, 4, rng=seed)
        first = Dense(6, 4, rng=seed, input_grad=False)
        x, grad_out = rng.normal(size=(5, 6)), rng.normal(size=(5, 4))
        for layer in (full, first):
            layer.forward(x)
        assert full.backward(grad_out).shape == x.shape
        assert first.backward(grad_out) is None
        for name in full.grads:
            np.testing.assert_array_equal(first.grads[name], full.grads[name])
        check_param_grads(first, x)

    def test_only_branch_first_layers_skip_it(self, rng):
        cfg = DFPConfig(state_dim=12, n_measurements=2, n_actions=3,
                        offsets=(1, 2), temporal_weights=(0.5, 1.0),
                        state_hidden=(6, 5), state_out=4, module_hidden=4,
                        module_out=3, stream_hidden=5)
        net = DFPNetwork(cfg, rng=rng)
        inputs = (net.state_net, net.meas_net, net.goal_net)
        first = [branch.layers[0] for branch in inputs]
        assert not any(layer.input_grad for layer in first)
        for layer in net.layers:
            if isinstance(layer, Dense) and not any(layer is f for f in first):
                assert layer.input_grad
                if not isinstance(layer, SlotDense):  # pair input: TestSlotDense
                    check_input_grad(layer, rng.normal(size=(3, layer.in_features)))


class TestSlotDense:
    """``pre[b, a] = slots[b, a] @ W[J:] + (joint[b] @ W[:J] + b)``."""

    J, SLOT, OUT = 6, 3, 5

    def _case(self, rng, batch: int, n_slots: int, empty: bool):
        layer = SlotDense(self.J, self.SLOT, self.OUT, rng=rng)
        layer.params["b"][...] = rng.normal(size=self.OUT)
        joint = rng.normal(size=(batch, self.J))
        slots = rng.normal(size=(batch * n_slots, self.SLOT))
        if empty:  # an under-full window: every slot past the first is zeros
            slots.reshape(batch, n_slots, self.SLOT)[:, 1:] = 0.0
        return layer, (joint, slots)

    CASES = pytest.mark.parametrize(
        "batch, n_slots, empty",
        [(3, 4, False), (1, 5, False), (1, 1, False), (2, 3, True)],
        ids=["batch", "B=1", "B=1,A=1", "empty_slots"],
    )

    @CASES
    def test_gradients_match_finite_differences(self, rng, batch, n_slots, empty):
        layer, x = self._case(rng, batch, n_slots, empty)
        proj = rng.normal(size=(batch * n_slots, self.OUT))

        def scalar() -> float:
            return float((layer.forward(x) * proj).sum())

        layer.forward(x)
        grad_joint = layer.backward(proj).copy()
        assert grad_joint.shape == x[0].shape
        grad_w = numeric_grad(scalar, layer.params["W"])
        for name, rows in (("joint", slice(0, self.J)), ("slot", slice(self.J, None))):
            np.testing.assert_allclose(
                layer.grads["W"][rows], grad_w[rows], atol=TOL, rtol=1e-4, err_msg=name
            )
        np.testing.assert_allclose(
            layer.grads["b"], numeric_grad(scalar, layer.params["b"]), atol=TOL, rtol=1e-4
        )
        np.testing.assert_allclose(
            grad_joint, numeric_grad(scalar, x[0]), atol=TOL, rtol=1e-4
        )
        if empty:  # zero slots feed nothing into the slot block's rows
            live = x[1].reshape(batch, n_slots, self.SLOT)[:, 0]
            summed = proj.reshape(batch, n_slots, self.OUT)[:, 0]
            np.testing.assert_allclose(layer.grads["W"][self.J :], live.T @ summed)

    @CASES
    def test_every_forward_is_the_one_definition(self, rng, batch, n_slots, empty):
        layer, x = self._case(rng, batch, n_slots, empty)
        joint, slots = x
        w, b = layer.params["W"], layer.params["b"]
        want = slots @ w[self.J :] + np.repeat(joint @ w[: self.J] + b, n_slots, axis=0)
        first = layer.forward(x)
        np.testing.assert_array_equal(first, want)
        # The layer's own buffer, reused: a second forward rewrites it
        # with the same values.
        again = layer.forward(x)
        assert np.shares_memory(first, again)
        np.testing.assert_array_equal(again, want)

    def test_backward_overwrites_both_row_blocks(self, rng):
        """A second backward pass leaves exactly its own gradient in the
        joint rows, the slot rows and the bias — nothing of the first."""
        layer, x = self._case(rng, 2, 3, False)
        twin = SlotDense(self.J, self.SLOT, self.OUT, rng=0)
        twin.params = layer.params
        first, second = rng.normal(size=(2, 6, self.OUT))
        layer.forward(x)
        layer.backward(first)
        arrays = dict(layer.grads)
        layer.backward(second)
        twin.forward(x)
        twin.backward(second)
        for name, grad in layer.grads.items():
            assert grad is arrays[name]
            np.testing.assert_array_equal(grad, twin.grads[name])

    def test_state_and_init_are_a_plain_dense(self):
        layer, dense = SlotDense(6, 3, 5, rng=3), Dense(9, 5, rng=3)
        assert layer.params.keys() == dense.params.keys()
        for name in dense.params:
            np.testing.assert_array_equal(layer.params[name], dense.params[name])

    def test_rejects_misshapen_pairs(self, rng):
        layer, (joint, slots) = self._case(rng, 2, 3, False)
        with pytest.raises(ValueError):
            layer.forward((joint[:, :-1], slots))
        with pytest.raises(ValueError):
            layer.forward((joint, slots[:, :-1]))
        with pytest.raises(ValueError):
            layer.forward((joint, slots[:-1]))  # rows not a multiple of B
        with pytest.raises(RuntimeError):
            SlotDense(6, 3, 5, rng=0).backward(np.zeros((6, 5)))


class TestFactoredHeadBudget:
    """How far the factored head may sit from the concatenated GEMM it
    replaced (``concatenated_head``) — the stated numeric budget."""

    U = 2.0**-53

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 64),
        n_slots=st.integers(1, 10),
        slot=st.integers(1, 6),
        joint=st.integers(8, 300),
        x_exp=st.floats(-6.0, 6.0),
        w_exp=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pre_activation_within_the_rounding_bound(
        self, batch, n_slots, slot, joint, x_exp, w_exp, seed
    ):
        """Both forms sum the same ``K + 1`` terms (``K = J + slot``
        products and the bias) in different orders, so each is within
        ``γ_{K+1} ≤ (K + 2)·u`` of the exact value relative to
        ``|x| @ |W| + |b|`` — whatever the magnitudes."""
        rng = np.random.default_rng(seed)
        layer = SlotDense(joint, slot, 24, rng=rng)
        w, b = layer.params["W"], layer.params["b"]
        w *= 10.0**w_exp
        b[...] = rng.normal(size=b.shape) * 10.0**w_exp
        x = (
            rng.normal(size=(batch, joint)) * 10.0**x_exp,
            rng.normal(size=(batch * n_slots, slot)) * 10.0**x_exp,
        )
        magnitude = np.abs(concatenated_rows(*x)) @ np.abs(w) + np.abs(b)
        bound = 2 * (joint + slot + 2) * self.U * magnitude
        gap = np.abs(layer.forward(x) - concatenated_head(*x, w, b))
        assert np.all(gap <= bound), float((gap / bound).max())

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 64),
        n_actions=st.integers(1, 10),
        slot=st.integers(1, 6),
        state_out=st.integers(4, 172),
        module_out=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predictions_within_1e12_at_unit_scale(
        self, batch, n_actions, slot, state_out, module_out, seed
    ):
        config = DFPConfig(state_dim=n_actions * slot + 7, n_measurements=2,
                           n_actions=n_actions, slot_dim=slot, state_hidden=(32, 16),
                           state_out=state_out, module_hidden=8, module_out=module_out,
                           stream_hidden=24)
        net, twin = DFPNetwork(config, rng=seed), DFPNetwork(config, rng=seed)
        as_concatenating(twin)
        rng = np.random.default_rng(seed)
        inputs = (rng.normal(size=(batch, config.state_dim)),
                  rng.random((batch, 2)), rng.random((batch, 2)))
        np.testing.assert_allclose(
            net.forward(*inputs), twin.forward(*inputs), rtol=0, atol=1e-12
        )

    def test_sixty_batches_track_the_concatenating_twin(self):
        config = DFPConfig(**dict(SMALL, state_dim=120, n_actions=10, batch_size=64,
                                  state_hidden=(64, 32), state_out=32, module_hidden=16,
                                  module_out=16, stream_hidden=32))
        agent = DFPAgent(config, rng=5)
        twin = as_concatenating(DFPAgent(config, rng=5))
        for each in (agent, twin):
            _fill_replay(each, 3 * config.batch_size, 1.0)
        losses = [agent.train_batch() for _ in range(60)]
        twin_losses = [twin.train_batch() for _ in range(60)]
        np.testing.assert_allclose(losses, twin_losses, rtol=1e-10, atol=0)
        assert losses[-1] < losses[0]
        for layer, ref in zip(agent.network.layers, twin.network.layers):
            for name in layer.params:
                np.testing.assert_allclose(
                    layer.params[name], ref.params[name], rtol=0, atol=1e-9
                )
        assert agent._sample_rng.bit_generator.state == twin._sample_rng.bit_generator.state
        assert agent.optimizer.steps == twin.optimizer.steps == 60


def _fill_replay(agent: DFPAgent, n: int, target_scale: float) -> None:
    c = agent.config
    rng = np.random.default_rng(99)
    for i in range(n):
        agent.replay.append(
            Experience(
                rng.random(c.state_dim),
                rng.random(c.n_measurements),
                rng.random(c.n_measurements),
                int(rng.integers(c.n_actions)),
                target_scale * rng.normal(size=c.pred_dim),
                terminal=i % 5 == 0,
            )
        )


def _record_norms(agent: DFPAgent) -> list[float]:
    """Pre-clip norms of every later ``train_batch`` (it drops them)."""
    norms: list[float] = []
    clip = agent.optimizer.clip_gradients

    def recording(max_norm):
        norms.append(clip(max_norm))
        return norms[-1]

    agent.optimizer.clip_gradients = recording
    return norms


SMALL = dict(state_dim=40, n_measurements=2, n_actions=4, batch_size=16,
             state_hidden=(24, 12), state_out=8, module_hidden=6, module_out=5,
             stream_hidden=10)

TWIN_CASES = {
    "shared": (dict(SMALL, action_stream="shared"), 1.0),
    "dense": (dict(SMALL, action_stream="dense"), 1.0),
    # DFPConfig.paper_scale's shape: dense stream, 4:1 state layers,
    # 128-style measurement/goal modules, a wide stream.
    "paper_shaped": (dict(SMALL, state_dim=300, n_actions=10, batch_size=64,
                          state_hidden=(400, 100), state_out=52, module_hidden=13,
                          module_out=13, stream_hidden=52, action_stream="dense"), 1.0),
    # Targets large enough that every batch takes the scaling branch.
    "clipped": (dict(SMALL, grad_clip=0.5), 40.0),
}


class TestBufferedStepMatchesReference:
    @pytest.mark.parametrize("case", TWIN_CASES)
    def test_twenty_batches_bit_identical(self, case):
        kwargs, target_scale = TWIN_CASES[case]
        config = DFPConfig(**kwargs)
        agent = DFPAgent(config, rng=5)
        oracle = as_reference(DFPAgent(config, rng=5))
        for twin in (agent, oracle):
            _fill_replay(twin, 3 * config.batch_size, target_scale)
        norms, oracle_norms = _record_norms(agent), _record_norms(oracle)

        losses = [agent.train_batch() for _ in range(20)]
        assert losses == [oracle.train_batch() for _ in range(20)]
        assert norms == oracle_norms and len(norms) == 20
        if case == "clipped":
            assert min(norms) > config.grad_clip
        for layer, ref in zip(agent.network.layers, oracle.network.layers):
            for name in layer.params:
                np.testing.assert_array_equal(layer.params[name], ref.params[name])
        optimizer, ref = agent.optimizer, oracle.optimizer
        assert optimizer.steps == ref.steps == 20
        assert optimizer._m.keys() == ref._m.keys()
        for key in ref._m:
            np.testing.assert_array_equal(optimizer._m[key], ref._m[key])
            np.testing.assert_array_equal(optimizer._v[key], ref._v[key])

    def test_scalar_rl_finish_episode_bit_identical(self, mini_system, theta_trace):
        def episode(reference: bool):
            sched = ScalarRLScheduler(mini_system, window_size=5, seed=11)
            if reference:
                as_reference(sched.optimizer, *sched.policy.layers)
            sched.training = True
            sched.start_episode()
            Simulator(mini_system, sched, record_timeline=False).run(theta_trace)
            return sched.finish_episode(), sched.policy.state_dict()

        (loss, params), (ref_loss, ref_params) = episode(False), episode(True)
        assert loss == ref_loss and loss != 0.0
        for key, value in ref_params.items():
            np.testing.assert_array_equal(params[key], value)
