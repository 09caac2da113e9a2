"""Neural-network layers with explicit forward/backward passes.

Each layer follows the same protocol:

* ``forward(x, training=False)`` caches whatever the backward pass needs
  and returns the output,
* ``backward(grad_out)`` consumes the upstream gradient and returns the
  gradient with respect to the layer input, overwriting the parameter
  gradients in ``self.grads`` (nothing accumulates; nothing is zeroed),
* ``Dense`` and ``LeakyReLU`` — the layers every training step runs —
  write ``forward(x, training=True)`` and ``backward`` results into
  buffers they own and reuse, so those arrays are valid only until the
  layer's next training forward / backward; ``forward(x)`` without
  ``training`` returns a fresh array the caller may keep,
* ``params`` / ``grads`` are dicts keyed by parameter name so optimizers
  and serialisation can treat all layers uniformly.

Inputs are batched along the first axis: Dense consumes ``(B, F)``,
Conv1D consumes ``(B, L, C)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_init, xavier_init
from repro.utils.rng import as_generator

__all__ = [
    "Layer",
    "Dense",
    "SlotDense",
    "Conv1D",
    "MaxPool1D",
    "Flatten",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
]


class Layer:
    """Base class; parameter-free layers inherit the empty dicts."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] | None = None
        self._buffers: dict[str, np.ndarray] = {}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Parameter gradients, keyed like ``params``: what the last
        ``backward`` wrote, in place — optimisers hold views of them.

        The arrays appear, as zeros, at first access (the first backward
        pass or optimiser step), so a process that only ever runs
        ``infer`` never holds a dead copy of its weights.
        """
        if self._grads is None:
            self._grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        return self._grads

    def _buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The layer's persistent ``name`` scratch array, reallocated only
        when the batch shape changes."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self._buffers[name] = np.empty(shape, dtype=dtype)
        return buf

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, x: np.ndarray, workspace=None, key=None) -> np.ndarray:
        """Inference-only forward pass.

        Unlike :meth:`forward` it neither caches activations for a
        backward pass nor (for layers that override it) allocates fresh
        output arrays: with an
        :class:`~repro.nn.network.InferenceWorkspace` the output lands
        in a reused per-``key`` buffer. Values are bit-identical to
        :meth:`forward`. The default falls back to ``forward``.
        """
        return self.forward(x)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)


class Dense(Layer):
    """Fully-connected layer ``y = x @ W + b``.

    ``input_grad=False`` marks a layer fed raw inputs (the first of a
    branch): nothing consumes its input gradient, so ``backward`` skips
    the ``grad_out @ W.T`` product and returns ``None``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | int | None = None,
        init: str = "he",
        input_grad: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        rng = as_generator(rng)
        initializer = he_init if init == "he" else xavier_init
        self.in_features = in_features
        self.out_features = out_features
        self.input_grad = input_grad
        self.params = {
            "W": initializer((in_features, out_features), rng),
            "b": np.zeros(out_features),
        }
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input (B, {self.in_features}), got {x.shape}"
            )
        self._x = x
        if not training:
            return x @ self.params["W"] + self.params["b"]
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

    def infer(self, x: np.ndarray, workspace=None, key=None) -> np.ndarray:
        if workspace is None:
            return x @ self.params["W"] + self.params["b"]
        out = workspace.buffer(key, (x.shape[0], self.out_features))
        np.matmul(x, self.params["W"], out=out)
        out += self.params["b"]
        return out


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

    def _pre(self, x, buffer=lambda name, shape: np.empty(shape)) -> np.ndarray:
        """The definition, in arrays from ``buffer(name, shape)`` (fresh
        ones by default)."""
        joint, slots = x
        j, batch, width = self.joint_features, joint.shape[0], self.out_features
        w = self.params["W"]
        base = np.matmul(joint, w[:j], out=buffer("base", (batch, width)))
        base += self.params["b"]
        out = np.matmul(slots, w[j:], out=buffer("out", (slots.shape[0], width)))
        rows = out.reshape(batch, -1, width)
        rows += base[:, None, :]
        return out

    def forward(self, x, training: bool = False) -> np.ndarray:
        self._x = x
        return self._pre(x, self._buffer) if training else self._pre(x)

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

    def infer(self, x, workspace=None, key=None) -> np.ndarray:
        if workspace is None:
            return self._pre(x)
        return self._pre(x, lambda name, shape: workspace.buffer((key, name), shape))


class Conv1D(Layer):
    """1-D convolution over ``(B, L, C_in)`` with 'valid' padding.

    Used by the CNN state-module variant (paper Fig. 3). Implemented via
    an im2col-style window expansion so the inner product is one matmul.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        rng = as_generator(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.params = {
            "W": he_init((kernel_size, in_channels, out_channels), rng),
            "b": np.zeros(out_channels),
        }
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
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

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, out_len = grad_out.shape[0], grad_out.shape[1]
        flat = self._cols.reshape(batch, out_len, -1)
        grad_w = self.grads["W"].reshape(-1, self.out_channels)
        np.einsum("bof,bok->fk", flat, grad_out, out=grad_w)
        np.sum(grad_out, axis=(0, 1), out=self.grads["b"])

        w = self.params["W"].reshape(-1, self.out_channels)
        grad_cols = (grad_out @ w.T).reshape(
            batch, out_len, self.kernel_size, self.in_channels
        )
        grad_x = np.zeros(self._x_shape)
        starts = np.arange(out_len) * self.stride
        idx = starts[:, None] + np.arange(self.kernel_size)[None, :]
        np.add.at(grad_x, (slice(None), idx, slice(None)), grad_cols)
        return grad_x


class MaxPool1D(Layer):
    """Non-overlapping max pooling over ``(B, L, C)``.

    Sequence length must be divisible by ``pool_size``; callers pad or
    size their feature maps accordingly.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._mask: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        batch, length, channels = x.shape
        if length % self.pool_size != 0:
            raise ValueError(
                f"length {length} not divisible by pool_size {self.pool_size}"
            )
        self._x_shape = x.shape
        windows = x.reshape(batch, length // self.pool_size, self.pool_size, channels)
        out = windows.max(axis=2)
        self._mask = windows == out[:, :, None, :]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        # Distribute gradient to every argmax position (ties share).
        counts = self._mask.sum(axis=2, keepdims=True)
        grad = self._mask * (grad_out[:, :, None, :] / counts)
        return grad.reshape(self._x_shape)


class Flatten(Layer):
    """Collapse all trailing dimensions into one feature axis."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | int | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Layer):
    """Leaky rectifier used by the MRSch state module (paper §III-A)."""

    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.alpha > 1.0:
            self._mask = x > 0
            return np.where(self._mask, x, self.alpha * x)
        self._mask = np.greater(x, 0, out=self._buffer("mask", x.shape, bool))
        # max(x, αx) is the leaky rectifier for α ≤ 1 (see ``infer``).
        out = self._buffer("out", x.shape)
        np.multiply(x, self.alpha, out=out)
        return np.maximum(x, out, out=out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        if self.alpha > 1.0:
            return grad_out * np.where(self._mask, 1.0, self.alpha)
        # The slope, branch-free: max(mask, α) is 1 where x > 0 and α
        # elsewhere, exactly, for α ≤ 1.
        grad_in = self._buffer("grad_in", grad_out.shape)
        np.maximum(self._mask, self.alpha, out=grad_in)
        return np.multiply(grad_out, grad_in, out=grad_in)

    def infer(self, x: np.ndarray, workspace=None, key=None) -> np.ndarray:
        if workspace is None or self.alpha > 1.0:
            # max(x, αx) only equals the leaky rectifier for α ≤ 1.
            return np.where(x > 0, x, self.alpha * x)
        out = workspace.buffer(key, x.shape)
        np.multiply(x, self.alpha, out=out)
        np.maximum(x, out, out=out)
        return out


class Tanh(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class Sigmoid(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._y * (1.0 - self._y)


class Softmax(Layer):
    """Row-wise softmax; backward applies the full Jacobian product."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._y = exp / exp.sum(axis=-1, keepdims=True)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        dot = (grad_out * self._y).sum(axis=-1, keepdims=True)
        return self._y * (grad_out - dot)
