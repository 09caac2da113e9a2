"""Tests for the CNN state-module variant (Fig. 3 ablation)."""

import numpy as np
import pytest

from repro.core.cnn_state import _ToSequence, build_cnn_state_module
from repro.core.dfp import DFPAgent, DFPConfig
from repro.nn.layers import Conv1D


class TestBuild:
    def test_output_shape(self, rng):
        module, out_dim = build_cnn_state_module(60, out_dim=16, rng=rng)
        out = module.forward(rng.random((3, 60)))
        assert out.shape == (3, 16)
        assert out_dim == 16

    def test_too_small_state_raises(self, rng):
        with pytest.raises(ValueError):
            module, _ = build_cnn_state_module(4, rng=rng)
            module.forward(rng.random((1, 4)))

    def test_gradients_flow(self, rng):
        """Every weighted layer gets a gradient; the raw state's own is
        read by no one, so the module returns ``None`` for it."""
        module, _ = build_cnn_state_module(60, out_dim=8, rng=rng)
        module.forward(rng.random((2, 60)))
        assert module.backward(np.ones((2, 8))) is None
        for layer in module.layers:
            if layer.params:
                assert np.abs(layer.grads["W"]).sum() > 0

    def test_plugs_into_dfp_agent(self, rng):
        cfg = DFPConfig(state_dim=60, n_measurements=2, n_actions=3,
                        offsets=(1,), temporal_weights=(1.0,),
                        state_hidden=(8, 8), state_out=8,
                        module_hidden=8, module_out=8, stream_hidden=8)
        module, out_dim = build_cnn_state_module(60, out_dim=12, rng=rng)
        agent = DFPAgent(cfg, rng=rng, state_module=module, state_module_out=12)
        a = agent.act(rng.random(60), rng.random(2), rng.random(2),
                      np.ones(3, dtype=bool))
        assert 0 <= a < 3

    def test_deterministic(self):
        a, _ = build_cnn_state_module(60, rng=np.random.default_rng(5))
        b, _ = build_cnn_state_module(60, rng=np.random.default_rng(5))
        x = np.random.default_rng(0).random((1, 60))
        np.testing.assert_array_equal(a.forward(x), b.forward(x))


class TestInputGradients:
    def test_only_the_conv_fed_the_raw_state_skips_its_input_gradient(self, rng):
        module, _ = build_cnn_state_module(60, out_dim=8, rng=rng)
        convs = [layer for layer in module.layers if isinstance(layer, Conv1D)]
        assert [conv.input_grad for conv in convs] == [False, True]

    def test_to_sequence_passes_a_missing_gradient_through(self, rng):
        layer = _ToSequence()
        x = rng.random((2, 7))
        assert layer.forward(x).shape == (2, 7, 1)
        assert layer.backward(None) is None
        np.testing.assert_array_equal(layer.backward(x[:, :, None]), x)
