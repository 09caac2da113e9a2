"""Sequential container chaining layers into a network."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer

__all__ = ["Sequential", "reject_unknown_keys"]


def reject_unknown_keys(state: dict, known: set[str]) -> None:
    """Raise ``KeyError`` naming every key of ``state`` outside ``known``."""
    unknown = sorted(set(state) - known)
    if unknown:
        raise KeyError(f"unexpected parameters: {', '.join(unknown)}")


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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the chain; the result is the last layer's output, valid
        until that layer's next forward (see :mod:`repro.nn.layers`)."""
        for layer in self.layers:
            x = layer.forward(x)
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

    def __len__(self) -> int:
        return len(self.layers)
