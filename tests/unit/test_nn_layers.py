"""Unit tests for repro.nn.layers: shapes, values, error handling."""

import numpy as np
import pytest

from repro.nn.init import he_init
from repro.nn.layers import Conv1D, Dense, Flatten, LeakyReLU, SlotDense


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(5, 3, rng=rng)
        out = layer.forward(rng.random((7, 5)))
        assert out.shape == (7, 3)

    def test_linear_map(self, rng):
        layer = Dense(4, 2, rng=rng)
        layer.params["W"][...] = np.arange(8).reshape(4, 2)
        layer.params["b"][...] = [1.0, -1.0]
        x = np.ones((1, 4))
        out = layer.forward(x)
        np.testing.assert_allclose(out, [[0 + 2 + 4 + 6 + 1, 1 + 3 + 5 + 7 - 1]])

    def test_rejects_wrong_input_width(self, rng):
        layer = Dense(5, 3, rng=rng)
        with pytest.raises(ValueError, match="expected input"):
            layer.forward(np.zeros((2, 4)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=rng).backward(np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "make, x_shape, out_shape",
        [
            (lambda: Dense(3, 2, rng=4), (4, 3), (4, 2)),
            (lambda: Conv1D(2, 3, kernel_size=3, stride=2, rng=4), (2, 9, 2), (2, 4, 3)),
        ],
        ids=["dense", "conv1d"],
    )
    def test_backward_overwrites_gradients(self, rng, make, x_shape, out_shape):
        """``grads`` holds the last backward pass's gradient, in the same
        arrays: a second pass leaves exactly what it alone writes."""
        layer, twin = make(), make()
        x = rng.normal(size=x_shape)
        first, second = rng.normal(size=(2, *out_shape))
        layer.forward(x)
        layer.backward(first)
        arrays = dict(layer.grads)
        layer.backward(second)
        twin.forward(x)
        twin.backward(second)
        for name, grad in layer.grads.items():
            assert grad is arrays[name]
            np.testing.assert_array_equal(grad, twin.grads[name])

    def test_gradient_buffers_appear_at_first_training_use(self, rng):
        """Forward passes leave them unset; the first backward pass
        writes them."""
        layer = Dense(3, 2, rng=rng)
        x = rng.random((4, 3))
        layer.forward(x[:1])
        layer.forward(x)
        assert layer._grads is None
        layer.backward(np.ones((4, 2)))
        np.testing.assert_array_equal(layer.grads["W"], x.T @ np.ones((4, 2)))
        np.testing.assert_array_equal(layer.grads["b"], [4.0, 4.0])

    def test_deterministic_init(self):
        a = Dense(6, 4, rng=np.random.default_rng(3))
        b = Dense(6, 4, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.params["W"], b.params["W"])

    def test_has_no_init_knob(self):
        # He weights are the one draw every layer makes.
        with pytest.raises(TypeError, match="init"):
            Dense(6, 4, rng=np.random.default_rng(3), init="xavier")


class TestWeightsAtFirstRead:
    """Weighted layers draw from the generator they own at the first read
    of ``params``, not at construction."""

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda rng: Dense(5, 3, rng=rng), (5, 3)),
            (lambda rng: SlotDense(4, 2, 3, rng=rng), (6, 3)),
            (lambda rng: Conv1D(2, 3, kernel_size=4, rng=rng), (4, 2, 3)),
        ],
        ids=["dense", "slot_dense", "conv1d"],
    )
    def test_first_read_is_he_init_from_a_twin_generator(self, make, shape):
        rng = np.random.default_rng(11)
        layer = make(rng)
        assert rng.bit_generator.state == np.random.default_rng(11).bit_generator.state
        params = layer.params
        np.testing.assert_array_equal(params["W"], he_init(shape, np.random.default_rng(11)))
        np.testing.assert_array_equal(params["b"], np.zeros(shape[-1]))
        # The optimiser's stale check compares identities: every later
        # read hands back the same dict and arrays.
        again = layer.params
        assert again is params
        assert all(again[name] is array for name, array in params.items())


class TestActivations:
    def test_leaky_relu_values(self):
        out = LeakyReLU(alpha=0.1).forward(np.array([[-2.0, 3.0]]))
        np.testing.assert_allclose(out, [[-0.2, 3.0]])

    def test_leaky_relu_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LeakyReLU(alpha=-0.5)

    @pytest.mark.parametrize("alpha", [1.5, float("nan")])
    def test_leaky_relu_rejects_alpha_above_one(self, alpha):
        """Every pass computes ``max(x, αx)``, the rectifier for α ≤ 1 only."""
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            LeakyReLU(alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_leaky_relu_passes_agree_at_the_ends_of_its_range(self, alpha, rng):
        x = rng.normal(size=(4, 5))
        expected = np.where(x > 0, x, alpha * x)
        layer = LeakyReLU(alpha)
        np.testing.assert_array_equal(layer.forward(x), expected)
        slope = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(slope, np.where(x > 0, 1.0, alpha))


class TestConv1D:
    def test_output_length(self, rng):
        conv = Conv1D(1, 4, kernel_size=3, stride=2, rng=rng)
        assert conv.output_length(11) == 5
        out = conv.forward(rng.random((2, 11, 1)))
        assert out.shape == (2, 5, 4)

    def test_known_convolution(self, rng):
        conv = Conv1D(1, 1, kernel_size=2, stride=1, rng=rng)
        conv.params["W"][...] = np.array([[[1.0]], [[2.0]]])
        conv.params["b"][...] = 0.0
        x = np.array([[[1.0], [2.0], [3.0]]])
        out = conv.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [1 + 4, 2 + 6])

    def test_too_short_input_raises(self, rng):
        conv = Conv1D(1, 1, kernel_size=5, rng=rng)
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv.forward(np.zeros((1, 3, 1)))

    def test_wrong_channels_raises(self, rng):
        conv = Conv1D(2, 1, kernel_size=2, rng=rng)
        with pytest.raises(ValueError, match="expected input"):
            conv.forward(np.zeros((1, 5, 3)))

    def test_without_input_grad_the_weight_gradients_are_the_same(self, rng):
        """``input_grad=False`` returns ``None`` and writes the same
        ``W`` / ``b`` gradients as the layer that computes its input's."""
        x = rng.normal(size=(3, 17, 2))
        grad_out = rng.normal(size=(3, 5, 4))
        full = Conv1D(2, 4, kernel_size=5, stride=3, rng=9)
        raw = Conv1D(2, 4, kernel_size=5, stride=3, rng=9, input_grad=False)
        for layer in (full, raw):
            layer.forward(x)
        assert full.backward(grad_out).shape == x.shape
        assert raw.backward(grad_out) is None
        for name in ("W", "b"):
            np.testing.assert_array_equal(raw.grads[name], full.grads[name])

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            Conv1D(1, 1, kernel_size=0)
        with pytest.raises(ValueError):
            Conv1D(1, 1, kernel_size=2, stride=0)


class TestFlatten:
    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.random((3, 4, 5))
        out = layer.forward(x)
        assert out.shape == (3, 20)
        back = layer.backward(out)
        assert back.shape == x.shape
