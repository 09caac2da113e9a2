"""A small, self-contained NumPy neural-network library.

This package replaces the TensorFlow dependency of the original MRSch
implementation. It provides exactly the building blocks the paper needs —
fully-connected and 1-D convolutional layers, leaky-rectifier activations,
mean-squared-error training with Adam — implemented with explicit
forward/backward passes and verified against finite differences in the
test suite.

Layout
------
``layers``
    Stateless and parameterised layers with ``forward``/``backward``.
``network``
    :class:`Sequential` container chaining layers.
``losses``
    MSE / Huber / cross-entropy losses returning (value, gradient).
``optim``
    SGD, Momentum, RMSProp and Adam optimizers.
``init``
    He-normal weight initialisation (every weighted layer's draw).
``serialize``
    ``.npz`` round-trip of network parameters.
"""

from repro.nn.init import he_init
from repro.nn.layers import (
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool1D,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.losses import cross_entropy_loss, huber_loss, mse_loss
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam, Momentum, Optimizer, RMSProp
from repro.nn.serialize import load_params, save_params

__all__ = [
    "Layer",
    "Dense",
    "Conv1D",
    "MaxPool1D",
    "Flatten",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "Sequential",
    "mse_loss",
    "huber_loss",
    "cross_entropy_loss",
    "Optimizer",
    "SGD",
    "Momentum",
    "RMSProp",
    "Adam",
    "he_init",
    "save_params",
    "load_params",
]
