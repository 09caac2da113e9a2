"""Sequential container chaining layers into a network, plus the
reusable-buffer workspace the inference fast path runs on."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["Sequential", "InferenceWorkspace"]


class InferenceWorkspace:
    """Reused output buffers and dtype-cast parameters for inference.

    The per-decision scoring path used to allocate every intermediate
    activation afresh — tens of small arrays per scheduling decision.
    A workspace hands each ``(chain, layer)`` key a persistent output
    buffer instead, so steady-state inference performs zero activation
    allocations. It also memoises parameters cast to the workspace
    dtype, which is what makes the opt-in ``float32`` scoring mode
    cheap: weights are cast once per training update, not per decision.

    Buffers are recycled by key: the result a layer returns is only
    valid until the same key is used again. Chains therefore give every
    layer its own key, and public APIs copy anything they hand out.
    """

    def __init__(self, dtype: np.dtype | str = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._buffers: dict[tuple, np.ndarray] = {}
        self._params: dict[tuple[int, str], np.ndarray] = {}

    def buffer(self, key, shape: tuple[int, ...]) -> np.ndarray:
        """A persistent ``shape``-sized scratch array for ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=self.dtype)
            self._buffers[key] = buf
        return buf

    def param(self, layer: Layer, name: str) -> np.ndarray:
        """``layer.params[name]``, cast to the workspace dtype (cached)."""
        value = layer.params[name]
        if value.dtype == self.dtype:
            return value
        key = (id(layer), name)
        cached = self._params.get(key)
        if cached is None:
            cached = value.astype(self.dtype)
            self._params[key] = cached
        return cached

    def cast(self, key, value: np.ndarray) -> np.ndarray:
        """``value`` in the workspace dtype, via a reused buffer."""
        if value.dtype == self.dtype:
            return value
        out = self.buffer(key, value.shape)
        out[...] = value
        return out

    def invalidate_params(self) -> None:
        """Drop cast-parameter caches (call after any weight update)."""
        self._params.clear()


class Sequential:
    """A feed-forward chain of layers.

    Exposes the same ``forward``/``backward`` protocol as a single layer
    so chains can be composed into multi-branch architectures (the DFP
    network composes three input branches plus two output streams).
    """

    def __init__(self, layers: list[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers or [])

    def add(self, layer: Layer) -> "Sequential":
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def infer(
        self, x: np.ndarray, workspace: InferenceWorkspace | None = None, key: str = ""
    ) -> np.ndarray:
        """Inference-only forward pass (bit-identical values).

        With a workspace, intermediate activations land in reused
        buffers — the returned array is workspace-owned and valid only
        until the next ``infer`` through the same keys.
        """
        for i, layer in enumerate(self.layers):
            x = layer.infer(x, workspace, (key, i))
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Backpropagate through the chain; returns the input gradient
        (``None`` when the first layer was built with ``input_grad=False``)."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.size for layer in self.layers for p in layer.params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat ``{layerIdx.name: array}`` mapping of parameter copies."""
        return {
            f"{li}.{name}": param.copy()
            for li, layer in enumerate(self.layers)
            for name, param in layer.params.items()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for li, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                key = f"{li}.{name}"
                if key not in state:
                    raise KeyError(f"missing parameter {key}")
                if state[key].shape != param.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: {state[key].shape} vs {param.shape}"
                    )
                param[...] = state[key]

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __len__(self) -> int:
        return len(self.layers)
