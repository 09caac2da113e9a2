"""Sequential container chaining layers into a network, plus the
reusable-buffer workspace the inference fast path runs on."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["Sequential", "InferenceWorkspace", "reject_unknown_keys"]


def reject_unknown_keys(state: dict, known: set[str]) -> None:
    """Raise ``KeyError`` naming every key of ``state`` outside ``known``."""
    unknown = sorted(set(state) - known)
    if unknown:
        raise KeyError(f"unexpected parameters: {', '.join(unknown)}")


class InferenceWorkspace:
    """Reused float64 output buffers for inference.

    The per-decision scoring path used to allocate every intermediate
    activation afresh — tens of small arrays per scheduling decision.
    A workspace hands each ``(chain, layer)`` key a persistent output
    buffer instead, so steady-state inference performs zero activation
    allocations.

    Buffers are recycled by key: the result a layer returns is only
    valid until the same key is used again. Chains therefore give every
    layer its own key, and public APIs copy anything they hand out.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def buffer(self, key, shape: tuple[int, ...]) -> np.ndarray:
        """A persistent ``shape``-sized scratch array for ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._buffers[key] = buf
        return buf


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

    def state_keys(self) -> set[str]:
        """The keys of :meth:`state_dict`, without copying a parameter."""
        return {f"{li}.{name}" for li, layer in enumerate(self.layers) for name in layer.params}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters in place. Every key must
        name a parameter: a checkpoint of another architecture raises
        ``KeyError`` before anything is written, instead of loading in
        part."""
        reject_unknown_keys(state, self.state_keys())
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
