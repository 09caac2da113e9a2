"""A small, self-contained NumPy neural-network library.

This package replaces the TensorFlow dependency of the original MRSch
implementation. It provides exactly the building blocks the paper's
three networks train with — the §III-A DFP agent, its Fig. 3 CNN state
module and the scalar-RL baseline: fully-connected and 1-D convolutional
layers, the leaky rectifier, mean-squared error and Adam — implemented
with explicit forward/backward passes and verified against finite
differences in the test suite.

Layout
------
``layers``
    Stateless and parameterised layers with ``forward``/``backward``.
``network``
    :class:`Sequential` container chaining layers.
``losses``
    The MSE loss, returning (value, gradient).
``optim``
    Adam, on the block-sweep :class:`Optimizer` base.
``init``
    He-normal weight initialisation (every weighted layer's draw).
``serialize``
    ``.npz`` round-trip of network parameters.
"""

from repro.nn.init import he_init
from repro.nn.layers import Conv1D, Dense, Flatten, Layer, LeakyReLU
from repro.nn.losses import mse_loss
from repro.nn.network import Sequential
from repro.nn.optim import Adam, Optimizer
from repro.nn.serialize import load_params, save_params

__all__ = [
    "Layer",
    "Dense",
    "Conv1D",
    "Flatten",
    "LeakyReLU",
    "Sequential",
    "mse_loss",
    "Optimizer",
    "Adam",
    "he_init",
    "save_params",
    "load_params",
]
