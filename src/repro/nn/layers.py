"""Neural-network layers with explicit forward/backward passes.

Each layer follows the same protocol:

* ``forward(x)`` caches whatever the backward pass needs and returns
  the output — one forward, whether a decision is being scored or a
  minibatch trained,
* ``backward(grad_out)`` consumes the upstream gradient and returns the
  gradient with respect to the layer input, overwriting the parameter
  gradients in ``self.grads`` (nothing accumulates; nothing is zeroed),
* ``Dense``, ``SlotDense`` and ``LeakyReLU`` — the layers the DFP network
  runs — write ``forward`` and ``backward`` results into buffers they
  own and reuse (:meth:`Layer._buffer`), so a returned array is valid
  only until the same layer's next forward / backward: copy what must
  outlive it, and run a training forward and its ``backward`` back to
  back,
* ``params`` / ``grads`` are dicts keyed by parameter name so optimizers
  and serialisation can treat all layers uniformly,
* ``params`` of a weighted layer (``Dense``, ``SlotDense``, ``Conv1D``)
  are drawn at their first read — a forward, a backward, the optimiser's
  first step, ``state_dict`` / ``load_state_dict`` or
  ``parameter_count`` — from the generator the layer was given, which it
  then drops. A layer owns that generator: give each layer its own
  (``spawn_generators``), so when a layer draws cannot change what it
  draws; a network that never consults a layer never holds its weights.

Inputs are batched along the first axis: Dense consumes ``(B, F)``,
Conv1D consumes ``(B, L, C)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_init
from repro.utils.rng import as_generator

__all__ = [
    "reuse",
    "Layer",
    "Dense",
    "SlotDense",
    "Conv1D",
    "Flatten",
    "LeakyReLU",
]


def reuse(buffers: dict, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """``buffers[name]``, a persistent scratch array reallocated only when
    ``shape`` changes — the one buffer rule of the layers, the DFP
    network's packing and its agent's minibatch."""
    buf = buffers.get(name)
    if buf is None or buf.shape != shape:
        buf = buffers[name] = np.empty(shape, dtype=dtype)
    return buf


class Layer:
    """Base class; parameter-free layers inherit the empty dicts."""

    def __init__(self) -> None:
        self._params: dict[str, np.ndarray] | None = {}
        self._draw: tuple | None = None
        self._grads: dict[str, np.ndarray] | None = None
        self._buffers: dict[str, np.ndarray] = {}

    def _defer(self, shape: tuple[int, ...], rng) -> None:
        """Hold ``W = he_init(shape, rng)`` and a zero bias of width
        ``shape[-1]`` until ``params`` is first read."""
        self._params = None
        self._draw = (shape, as_generator(rng))

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Parameters keyed by name; the same dict and arrays on every
        read (optimisers hold views of them, so update them in place).

        A weighted layer draws them at the first read and drops its
        generator (see the module docstring)."""
        if self._params is None:
            shape, rng = self._draw
            self._draw = None
            self._params = {"W": he_init(shape, rng), "b": np.zeros(shape[-1])}
        return self._params

    @params.setter
    def params(self, value: dict[str, np.ndarray]) -> None:
        self._params, self._draw = value, None

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Parameter gradients, keyed like ``params``: what the last
        ``backward`` wrote, in place — optimisers hold views of them.

        The arrays appear, as zeros, at first access (the first backward
        pass or optimiser step), so a process that only ever scores
        never holds a dead copy of its weights.
        """
        if self._grads is None:
            self._grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        return self._grads

    def _buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The layer's persistent ``name`` scratch array (:func:`reuse`)."""
        return reuse(self._buffers, name, shape, dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``.

    ``input_grad=False`` marks a layer fed raw inputs (the first of a
    branch): nothing consumes its input gradient, so ``backward`` skips
    the ``grad_out @ W.T`` product and returns ``None``.

    ``W`` is drawn at the first read of ``params`` from ``rng``, which
    the layer owns: layers sharing a generator would draw in read order.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | int | None = None,
        input_grad: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.input_grad = input_grad
        self._defer((in_features, out_features), rng)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input (B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        out = self._buffer("out", (x.shape[0], self.out_features))
        np.matmul(x, self.params["W"], out=out)
        out += self.params["b"]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.T, grad_out, out=self.grads["W"])
        np.sum(grad_out, axis=0, out=self.grads["b"])
        if not self.input_grad:
            return None
        grad_in = self._buffer("grad_in", self._x.shape)
        return np.matmul(grad_out, self.params["W"].T, out=grad_in)


class SlotDense(Dense):
    """``Dense`` over ``joint[b] ⊕ slots[b, a]`` — the first layer of a
    head shared by the ``A`` slots of a row — without building that input:

        ``pre[b, a] = slots[b, a] @ W[J:] + (joint[b] @ W[:J] + b)``

    ``W`` is the one ``(J + slot, out)`` tensor a ``Dense`` over the
    concatenated rows holds; the joint product runs once per row, not
    once per slot. The input is the pair ``(joint (B, J), slots (B·A,
    slot))``, the output ``(B·A, out)``; ``backward`` returns the joint
    gradient only — slots are raw inputs.
    """

    def __init__(self, joint_features, slot_features, out_features, rng=None) -> None:
        super().__init__(joint_features + slot_features, out_features, rng=rng)
        self.joint_features = joint_features

    def forward(self, x) -> np.ndarray:
        joint, slots = self._x = x
        j, batch, width = self.joint_features, joint.shape[0], self.out_features
        w = self.params["W"]
        base = np.matmul(joint, w[:j], out=self._buffer("base", (batch, width)))
        base += self.params["b"]
        out = np.matmul(slots, w[j:], out=self._buffer("out", (slots.shape[0], width)))
        rows = out.reshape(batch, -1, width)
        rows += base[:, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        joint, slots = self._x
        j, batch, width = self.joint_features, joint.shape[0], self.out_features
        summed = self._buffer("grad_base", (batch, width))
        np.sum(grad_out.reshape(batch, -1, width), axis=1, out=summed)
        grad_w = self.grads["W"]
        np.matmul(joint.T, summed, out=grad_w[:j])
        np.matmul(slots.T, grad_out, out=grad_w[j:])
        np.sum(summed, axis=0, out=self.grads["b"])
        grad_in = self._buffer("grad_in", joint.shape)
        return np.matmul(summed, self.params["W"][:j].T, out=grad_in)


class Conv1D(Layer):
    """1-D convolution over ``(B, L, C_in)`` with 'valid' padding.

    Used by the CNN state-module variant (paper Fig. 3). Implemented via
    an im2col-style window expansion so the inner product is one matmul.
    Like :class:`Dense`, it draws ``W`` at the first read of ``params``
    from the ``rng`` it owns, and ``input_grad=False`` (a layer fed raw
    inputs) makes ``backward`` skip the input gradient and return ``None``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: np.random.Generator | int | None = None,
        input_grad: bool = True,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.input_grad = input_grad
        self._defer((kernel_size, in_channels, out_channels), rng)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def output_length(self, length: int) -> int:
        if length < self.kernel_size:
            raise ValueError(
                f"input length {length} shorter than kernel {self.kernel_size}"
            )
        return (length - self.kernel_size) // self.stride + 1

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        batch, length, _ = x.shape
        out_len = self.output_length(length)
        starts = np.arange(out_len) * self.stride
        # (B, out_len, K, C) gather of sliding windows.
        idx = starts[:, None] + np.arange(self.kernel_size)[None, :]
        return x[:, idx, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv1D expected input (B, L, {self.in_channels}), got {x.shape}"
            )
        self._x_shape = x.shape
        cols = self._im2col(x)  # (B, out_len, K, C_in)
        self._cols = cols
        batch, out_len = cols.shape[0], cols.shape[1]
        flat = cols.reshape(batch, out_len, -1)
        w = self.params["W"].reshape(-1, self.out_channels)
        return flat @ w + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, out_len = grad_out.shape[0], grad_out.shape[1]
        flat = self._cols.reshape(batch, out_len, -1)
        grad_w = self.grads["W"].reshape(-1, self.out_channels)
        np.einsum("bof,bok->fk", flat, grad_out, out=grad_w)
        np.sum(grad_out, axis=(0, 1), out=self.grads["b"])
        if not self.input_grad:
            return None

        w = self.params["W"].reshape(-1, self.out_channels)
        grad_cols = (grad_out @ w.T).reshape(
            batch, out_len, self.kernel_size, self.in_channels
        )
        grad_x = np.zeros(self._x_shape)
        starts = np.arange(out_len) * self.stride
        idx = starts[:, None] + np.arange(self.kernel_size)[None, :]
        np.add.at(grad_x, (slice(None), idx, slice(None)), grad_cols)
        return grad_x


class Flatten(Layer):
    """Collapse all trailing dimensions into one feature axis."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class LeakyReLU(Layer):
    """Leaky rectifier used by the MRSch state module (paper §III-A).

    ``alpha`` must be in [0, 1]: there the rectifier is ``max(x, αx)``
    and its slope ``max(x > 0, α)``, the forms ``forward`` and
    ``backward`` compute.
    """

    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = np.greater(x, 0, out=self._buffer("mask", x.shape, bool))
        out = self._buffer("out", x.shape)
        np.multiply(x, self.alpha, out=out)
        return np.maximum(x, out, out=out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        # The slope, branch-free: max(mask, α) is 1 where x > 0 and α
        # elsewhere.
        grad_in = self._buffer("grad_in", grad_out.shape)
        np.maximum(self._mask, self.alpha, out=grad_in)
        return np.multiply(grad_out, grad_in, out=grad_in)
