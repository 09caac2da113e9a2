"""Tests for optimizers: convergence, state handling, clipping."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import mse_loss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam, Momentum, RMSProp
from tests.unit._nn_reference import whole_tensor_update


def quadratic_step_count(optimizer_cls, lr, tol=1e-3, max_steps=3000, **kwargs) -> int:
    """Steps needed to fit y = 2x + 1 with a single Dense layer."""
    rng = np.random.default_rng(0)
    layer = Dense(1, 1, rng=rng)
    opt = optimizer_cls([layer], lr=lr, **kwargs)
    x = rng.uniform(-1, 1, size=(64, 1))
    y = 2.0 * x + 1.0
    for step in range(max_steps):
        pred = layer.forward(x)
        loss, grad = mse_loss(pred, y)
        if loss < tol:
            return step
        layer.backward(grad)
        opt.step()
    return max_steps


@pytest.mark.parametrize(
    "opt_cls,lr",
    [(SGD, 0.5), (Momentum, 0.1), (RMSProp, 0.05), (Adam, 0.05)],
    ids=["sgd", "momentum", "rmsprop", "adam"],
)
def test_optimizers_fit_linear_function(opt_cls, lr):
    steps = quadratic_step_count(opt_cls, lr)
    assert steps < 3000, f"{opt_cls.__name__} failed to converge"


def test_adam_faster_than_sgd_on_ill_conditioned():
    """Adam's per-parameter scaling should beat plain SGD here."""
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(128, 2))
    x[:, 1] *= 100.0  # wildly different feature scales
    true_w = np.array([[1.0], [0.01]])
    y = x @ true_w

    def run(opt_cls, lr):
        layer = Dense(2, 1, rng=np.random.default_rng(2))
        opt = opt_cls([layer], lr=lr)
        for _ in range(300):
            loss, grad = mse_loss(layer.forward(x), y)
            layer.backward(grad)
            opt.step()
        return mse_loss(layer.forward(x), y)[0]

    assert run(Adam, 0.05) < run(SGD, 1e-5)


def test_invalid_learning_rate():
    with pytest.raises(ValueError):
        SGD([], lr=0.0)
    with pytest.raises(ValueError):
        Adam([], lr=-1.0)


def test_momentum_validation():
    with pytest.raises(ValueError):
        Momentum([], momentum=1.0)


def test_rmsprop_validation():
    with pytest.raises(ValueError):
        RMSProp([], decay=1.5)


def test_adam_beta_validation():
    with pytest.raises(ValueError):
        Adam([], beta1=1.0)


class TestGradientClipping:
    def test_clip_reduces_norm(self, rng):
        layer = Dense(3, 3, rng=rng)
        layer.grads["W"][...] = 10.0
        layer.grads["b"][...] = 10.0
        opt = SGD([layer], lr=0.1)
        pre_norm = opt.clip_gradients(1.0)
        assert pre_norm > 1.0
        total = sum(float((g**2).sum()) for g in layer.grads.values())
        assert np.sqrt(total) <= 1.0 + 1e-9

    def test_clip_noop_below_threshold(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.grads["W"][...] = 0.01
        before = layer.grads["W"].copy()
        SGD([layer], lr=0.1).clip_gradients(100.0)
        np.testing.assert_array_equal(layer.grads["W"], before)

    def test_clip_invalid_norm(self, rng):
        with pytest.raises(ValueError):
            SGD([Dense(2, 2, rng=rng)], lr=0.1).clip_gradients(0.0)

    def test_non_finite_norm_raises_before_any_weight_moves(self, rng):
        """A NaN norm is not ``> max_norm``; stepping on it would write
        NaN into every weight."""
        layer = Dense(3, 2, rng=rng)
        opt = Adam([layer], lr=0.1)
        before = {name: param.copy() for name, param in layer.params.items()}
        layer.forward(rng.normal(size=(4, 3)), training=True)
        layer.backward(np.full((4, 2), np.nan))
        with pytest.raises(FloatingPointError):
            opt.clip_gradients(1.0)
            opt.step()
        for name, param in layer.params.items():
            np.testing.assert_array_equal(param, before[name])


def test_optimizer_updates_in_place(rng):
    """Parameter arrays must keep their identity (serialisation aliases)."""
    layer = Dense(2, 2, rng=rng)
    ref = layer.params["W"]
    opt = Adam([layer], lr=0.1)
    layer.forward(np.ones((1, 2)))
    layer.backward(np.ones((1, 2)))
    opt.step()
    assert layer.params["W"] is ref


@pytest.mark.parametrize("opt_cls", [SGD, Momentum, RMSProp], ids=["sgd", "momentum", "rmsprop"])
def test_blocked_update_is_the_whole_tensor_expression(opt_cls, rng):
    """A weight spanning several sweep blocks, five steps: bit-identical
    to the textbook update (Adam's twin runs are in test_nn_gradients)."""
    layer = Dense(300, 120, rng=rng)
    opt = opt_cls([layer], lr=0.01)
    expected = {name: param.copy() for name, param in layer.params.items()}
    states = {name: {} for name in expected}
    for _ in range(5):
        for name, grad in layer.grads.items():
            grad[...] = rng.normal(size=grad.shape)
            whole_tensor_update(opt, states[name], expected[name], grad)
        opt.step()
    for name, param in layer.params.items():
        np.testing.assert_array_equal(param, expected[name])


@pytest.mark.parametrize("opt_cls", [SGD, Adam], ids=["sgd", "adam"])
def test_parameter_replaced_after_first_step_is_refused(opt_cls, rng):
    """The step's views point at the arrays of its first step; updating
    them after the layer dropped one would train a dead array."""
    net = Sequential([Dense(2, 4, rng=rng), Dense(4, 1, rng=rng)])
    opt = opt_cls(net.layers, lr=0.1)
    net.forward(np.ones((3, 2)), training=True)
    net.backward(np.ones((3, 1)))
    opt.step()
    replaced = net.layers[1].params["W"] = net.layers[1].params["W"].copy()
    before = [param.copy() for layer in net.layers for param in layer.params.values()]
    with pytest.raises(ValueError, match="replaced"):
        opt.step()
    after = [param for layer in net.layers for param in layer.params.values()]
    for param, value in zip(after, before):
        np.testing.assert_array_equal(param, value)
    assert opt.steps == 1 and net.layers[1].params["W"] is replaced


def test_non_contiguous_parameter_is_refused(rng):
    """A flat view of it would be a copy, and the update silently lost."""
    layer = Dense(3, 4, rng=rng)
    layer.params["W"] = np.asfortranarray(layer.params["W"])
    with pytest.raises(ValueError, match="contiguous"):
        SGD([layer], lr=0.1).step()
