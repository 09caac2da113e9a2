"""Weight initialisation: every weighted layer draws He-normal weights.

The initialiser takes an explicit :class:`numpy.random.Generator` so that
network construction is fully deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["he_init"]


def he_init(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """He-normal initialisation, suited to rectifier activations.

    ``fan_in`` is the product of all but the last dimension, which matches
    both Dense ``(in, out)`` and Conv1D ``(kernel, in_ch, out_ch)`` shapes.
    """
    rng = as_generator(rng)
    fan_in = int(np.prod(shape[:-1])) or 1
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
