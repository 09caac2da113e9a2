"""CNN state-module variant for the Fig. 3 ablation.

The original DFP processes its (image) state with a CNN. MRSch replaces
that with an MLP because the state features — job requests, waiting
times, per-unit availability — carry no spatial locality. The paper
demonstrates the choice empirically (Fig. 3: MLP beats CNN by up to 7%);
this module builds the CNN alternative so the experiment can be rerun.

The flat state vector is viewed as a 1-channel sequence and processed by
two strided Conv1D + leaky-rectifier blocks followed by a Dense
projection to the same output width as the MLP module, making the two
variants drop-in interchangeable inside :class:`~repro.core.dfp.DFPNetwork`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv1D, Dense, Flatten, Layer, LeakyReLU
from repro.nn.network import Sequential
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["build_cnn_state_module"]


class _ToSequence(Layer):
    """View a flat (B, F) state as a (B, F, 1) one-channel sequence."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x[:, :, None]

    def backward(self, grad_out: np.ndarray | None) -> np.ndarray | None:
        return None if grad_out is None else grad_out[:, :, 0]


def build_cnn_state_module(
    state_dim: int,
    out_dim: int = 128,
    channels: tuple[int, int] = (8, 16),
    kernel_sizes: tuple[int, int] = (9, 5),
    strides: tuple[int, int] = (4, 2),
    rng: np.random.Generator | int | None = None,
) -> tuple[Sequential, int]:
    """Build the CNN state module; returns ``(module, out_dim)``.

    Layer shapes are computed from ``state_dim`` so the module fits any
    system configuration. Raises if the state is too short for the
    requested kernels (tiny toy systems should shrink the kernels).
    """
    rng = as_generator(rng)
    rngs = spawn_generators(rng, 3)
    # The raw state feeds conv1: nothing reads its input gradient.
    conv1 = Conv1D(1, channels[0], kernel_sizes[0], strides[0], rng=rngs[0], input_grad=False)
    len1 = conv1.output_length(state_dim)
    conv2 = Conv1D(channels[0], channels[1], kernel_sizes[1], strides[1], rng=rngs[1])
    len2 = conv2.output_length(len1)
    flat_dim = len2 * channels[1]
    module = Sequential(
        [
            _ToSequence(),
            conv1,
            LeakyReLU(),
            conv2,
            LeakyReLU(),
            Flatten(),
            Dense(flat_dim, out_dim, rng=rngs[2]),
            LeakyReLU(),
        ]
    )
    return module, out_dim
