"""Adam, the one optimizer the paper's networks train with, on the
block-sweep base :class:`Optimizer`.

An optimizer is bound to a list of layers; ``step()`` reads the
gradients the last backward pass wrote into each layer's ``grads`` and
updates the matching entry in ``params`` in place (in-place updates keep
the arrays shared with any serialisation references).

Updates allocate nothing either: ``step()`` sweeps every tensor in
cache-sized blocks of its flat storage, views built at the first step,
and hands each block with two scratch blocks to the subclass's
elementwise ``_update``. The operations and their order are those of the
textbook whole-tensor expressions, so the results are bit-identical to
them (``tests/unit/_nn_reference.py`` keeps the allocating Adam as the
oracle).
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Layer

__all__ = ["Optimizer", "Adam"]

#: Elements per block of the update sweep. Adam's update makes 14
#: elementwise passes over parameter, gradient, moments and scratch; at
#: 128 KiB an array the six of them stay in L2 from the first pass to
#: the last instead of streaming a multi-megabyte tensor through memory
#: once per pass.
_BLOCK = 16384


def _flat(array: np.ndarray) -> np.ndarray:
    """1-D view of ``array`` (``reshape`` would silently hand a *copy* of
    a non-contiguous array, and the update would be lost)."""
    if not array.flags.c_contiguous:
        raise ValueError("optimizers need C-contiguous parameters and gradients")
    return array.reshape(-1)


class Optimizer:
    """Base optimizer; subclasses implement :meth:`_update` and list the
    per-parameter state it keeps in ``_state``."""

    def __init__(self, layers: list[Layer], lr: float = 1e-3) -> None:
        if not 0 < lr < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.layers = list(layers)
        self.lr = lr
        #: ``step()`` calls so far
        self.steps = 0
        #: one ``{parameter key: array}`` dict per kind of state (Adam's
        #: two moments); entries appear, as zeros, at the first step or clip
        self._state: tuple[dict[str, np.ndarray], ...] = ()
        self._built: tuple[list, list] | None = None

    def _views(self) -> tuple[list, list]:
        """Built at the first step or clip: per tensor ``(params, name,
        param, grad, squares)`` (stale check, clip norm), per block the
        ``(param, grad, *state, a, b)`` views :meth:`_update` takes."""
        if self._built is None:
            sizes = [p.size for layer in self.layers for p in layer.params.values()]
            scratch = np.empty(max([2 * _BLOCK, *sizes]))
            a, b = scratch[:_BLOCK], scratch[_BLOCK : 2 * _BLOCK]
            tensors, blocks = [], []
            for li, layer in enumerate(self.layers):
                for name, param in layer.params.items():
                    grad = layer.grads[name]
                    key = f"{li}.{name}"
                    state = [s.setdefault(key, np.zeros_like(param)) for s in self._state]
                    flat = [_flat(x) for x in (param, grad, *state)]
                    for lo in range(0, param.size, _BLOCK):
                        n = min(_BLOCK, param.size - lo)
                        blocks.append((*(x[lo : lo + n] for x in flat), a[:n], b[:n]))
                    # Whole-tensor squares in a layout-matched scratch view:
                    # blocking would change the pairwise summation order.
                    squares = scratch[: grad.size].reshape(grad.shape)
                    tensors.append((layer.params, name, param, grad, squares))
            self._built = tensors, blocks
        return self._built

    def step(self) -> None:
        tensors, blocks = self._views()
        if any(params[name] is not param for params, name, param, *_ in tensors):
            raise ValueError("a parameter was replaced after the first step; update it in place")
        self.steps += 1
        update = self._update
        for block in blocks:
            update(*block)

    def _update(self, param: np.ndarray, grad: np.ndarray, *state_and_scratch) -> None:
        """Update one block in place: ``(param, grad, *state, a, b)`` are
        aligned 1-D views, ``a`` and ``b`` scratch. Elementwise only —
        a block must not depend on its neighbours."""
        raise NotImplementedError

    def clip_gradients(self, max_norm: float) -> float:
        """Global-norm gradient clipping; returns the pre-clip norm. A
        non-finite norm raises: a step would write NaN into every weight."""
        if not 0 < max_norm < math.inf:
            raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
        tensors = self._views()[0]
        total = 0.0
        for *_, grad, squares in tensors:
            total += float(np.square(grad, out=squares).sum())
        norm = math.sqrt(total)
        if not math.isfinite(norm):
            raise FloatingPointError(f"gradient norm is {norm}")
        if norm > max_norm:
            scale = max_norm / (norm + 1e-12)
            for *_, grad, squares in tensors:
                grad *= scale
        return norm


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(
        self,
        layers: list[Layer],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(layers, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._state = (self._m, self._v)
        self._bias = (1.0, 1.0)

    def step(self) -> None:
        # Bias corrections of this step, hoisted out of the block sweep.
        t = self.steps + 1
        self._bias = (1.0 - self.beta1**t, 1.0 - self.beta2**t)
        super().step()

    def _update(self, param, grad, m, v, a, b) -> None:
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, self._bias[0], out=a)  # m_hat
        np.divide(v, self._bias[1], out=b)  # v_hat
        a *= self.lr
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        param -= a
