"""Tests for the optimizer: convergence, state handling, clipping."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import mse_loss
from repro.nn.network import Sequential
from repro.nn.optim import Adam


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


def test_adam_fits_linear_function():
    assert quadratic_step_count(Adam, 0.05) < 3000, "Adam failed to converge"


def test_adam_faster_than_sgd_on_ill_conditioned():
    """Adam's per-parameter scaling should beat plain gradient descent
    (``param -= lr * grad``, written out here) on these features."""
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(128, 2))
    x[:, 1] *= 100.0  # wildly different feature scales
    true_w = np.array([[1.0], [0.01]])
    y = x @ true_w

    def run(make_step):
        layer = Dense(2, 1, rng=np.random.default_rng(2))
        step = make_step(layer)
        for _ in range(300):
            loss, grad = mse_loss(layer.forward(x), y)
            layer.backward(grad)
            step()
        return mse_loss(layer.forward(x), y)[0]

    def gradient_descent(layer, lr=1e-5):
        def step():
            for name, param in layer.params.items():
                param -= lr * layer.grads[name]
        return step

    assert run(lambda layer: Adam([layer], lr=0.05).step) < run(gradient_descent)


def test_invalid_learning_rate():
    with pytest.raises(ValueError):
        Adam([], lr=0.0)
    with pytest.raises(ValueError):
        Adam([], lr=-1.0)


@pytest.mark.parametrize("setting", [
    {"lr": float("nan")}, {"lr": float("inf")},
    {"eps": -1.0}, {"eps": 0.0}, {"eps": float("nan")}, {"eps": float("inf")},
], ids=["lr-nan", "lr-inf", "eps-negative", "eps-zero", "eps-nan", "eps-inf"])
def test_adam_rejects_non_finite_settings(setting):
    with pytest.raises(ValueError, match="positive and finite"):
        Adam([], **setting)


def test_adam_beta_validation():
    with pytest.raises(ValueError):
        Adam([], beta1=1.0)


class TestGradientClipping:
    def test_clip_reduces_norm(self, rng):
        layer = Dense(3, 3, rng=rng)
        layer.grads["W"][...] = 10.0
        layer.grads["b"][...] = 10.0
        opt = Adam([layer], lr=0.1)
        pre_norm = opt.clip_gradients(1.0)
        assert pre_norm > 1.0
        total = sum(float((g**2).sum()) for g in layer.grads.values())
        assert np.sqrt(total) <= 1.0 + 1e-9

    def test_clip_noop_below_threshold(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.grads["W"][...] = 0.01
        before = layer.grads["W"].copy()
        Adam([layer], lr=0.1).clip_gradients(100.0)
        np.testing.assert_array_equal(layer.grads["W"], before)

    # ``norm > nan`` is always false: a NaN bound would switch clipping
    # off without a word.
    @pytest.mark.parametrize("max_norm", [0.0, float("nan"), float("inf")])
    def test_clip_invalid_norm(self, rng, max_norm):
        with pytest.raises(ValueError):
            Adam([Dense(2, 2, rng=rng)], lr=0.1).clip_gradients(max_norm)

    def test_non_finite_norm_raises_before_any_weight_moves(self, rng):
        """A NaN norm is not ``> max_norm``; stepping on it would write
        NaN into every weight."""
        layer = Dense(3, 2, rng=rng)
        opt = Adam([layer], lr=0.1)
        before = {name: param.copy() for name, param in layer.params.items()}
        layer.forward(rng.normal(size=(4, 3)))
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


def test_parameter_replaced_after_first_step_is_refused(rng):
    """The step's views point at the arrays of its first step; updating
    them after the layer dropped one would train a dead array."""
    net = Sequential([Dense(2, 4, rng=rng), Dense(4, 1, rng=rng)])
    opt = Adam(net.layers, lr=0.1)
    net.forward(np.ones((3, 2)))
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
        Adam([layer], lr=0.1).step()
