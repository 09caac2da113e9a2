"""The training loss, returning ``(value, gradient_wrt_prediction)``.

MRSch trains the DFP network with mean-squared error between predicted
and realised future-measurement changes (paper Fig. 4 reports the MSE
loss).
"""

from __future__ import annotations

import numpy as np

__all__ = ["mse_loss"]


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")


def mse_loss(
    pred: np.ndarray, target: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean squared error; ``mask`` zeroes out entries (e.g. untaken actions)."""
    _check_shapes(pred, target)
    diff = pred - target
    if mask is not None:
        diff = diff * mask
        denom = max(float(mask.sum()), 1.0)
    else:
        denom = float(diff.size) or 1.0
    value = float((diff**2).sum() / denom)
    grad = 2.0 * diff / denom
    return value, grad
