"""Tests for Sequential and parameter serialisation."""

import numpy as np
import pytest

from repro.nn.layers import Dense, LeakyReLU
from repro.nn.network import Sequential
from repro.nn.serialize import load_params, save_params


def build_net(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [Dense(4, 8, rng=rng), LeakyReLU(0.1), Dense(8, 2, rng=rng), LeakyReLU(0.3)]
    )


class TestSequential:
    def test_forward_matches_manual_chain(self, rng):
        net = build_net()
        x = rng.normal(size=(3, 4))
        manual = x
        for layer in net.layers:
            manual = layer.forward(manual)
        np.testing.assert_array_equal(net.forward(x), manual)

    def test_add_returns_self(self):
        net = Sequential()
        assert net.add(LeakyReLU()) is net
        assert len(net) == 1

    def test_parameter_count(self):
        net = build_net()
        assert net.parameter_count() == (4 * 8 + 8) + (8 * 2 + 2)

    def test_state_dict_roundtrip(self, rng):
        a, b = build_net(1), build_net(2)
        x = rng.normal(size=(2, 4))
        assert not np.allclose(a.forward(x), b.forward(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_state_dict_returns_copies(self):
        net = build_net()
        state = net.state_dict()
        state["0.W"][...] = 999.0
        assert not np.any(net.layers[0].params["W"] == 999.0)

    def test_load_missing_key_raises(self):
        net = build_net()
        state = net.state_dict()
        del state["0.W"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_unconsumed_key_raises_before_writing(self):
        net = build_net()
        before = net.state_dict()
        state = build_net(1).state_dict()
        state["5.W"] = np.zeros((2, 2))
        with pytest.raises(KeyError, match="5.W"):
            net.load_state_dict(state)
        for key, value in net.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_load_shape_mismatch_raises(self):
        net = build_net()
        state = net.state_dict()
        state["0.W"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestSerialize:
    def test_npz_roundtrip(self, tmp_path, rng):
        net = build_net(3)
        path = tmp_path / "params.npz"
        save_params(path, net.state_dict())
        restored = load_params(path)
        fresh = build_net(4)
        fresh.load_state_dict(restored)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(net.forward(x), fresh.forward(x))

    def test_keys_with_dots_preserved(self, tmp_path):
        state = {"a.b.c": np.arange(3.0), "x": np.eye(2)}
        path = tmp_path / "p.npz"
        save_params(path, state)
        out = load_params(path)
        assert set(out) == {"a.b.c", "x"}
        np.testing.assert_array_equal(out["a.b.c"], state["a.b.c"])
