"""Paired statistics for comparing policies over shared units.

Given per-unit values (one row per seed group, trace or decision) for
every policy, :func:`paired_bootstrap` gives *paired* confidence
intervals — each bootstrap resample draws the same units for both
policies, so between-seed variance cancels exactly as in a paired test —
and :func:`win_loss` counts strict per-unit wins.

Everything is NumPy-only and deterministic: the bootstrap RNG is seeded
explicitly, so a result is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["paired_bootstrap", "win_loss"]


def paired_bootstrap(
    unit_values: np.ndarray,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Paired bootstrap CIs of all pairwise mean differences.

    ``unit_values`` is (U units, P policies): a per-unit statistic (e.g. one
    seed's mean wait) for each policy. Returns three
    (P, P) matrices ``(mean_diff, ci_lo, ci_hi)`` for the row-minus-
    column difference, with the 95% percentile interval taken over
    ``n_bootstrap`` resamples of the *units* — the same resample indexes
    both policies, making the comparison paired.
    """
    unit_values = _checked_units(unit_values)
    is_int = isinstance(n_bootstrap, (int, np.integer)) and not isinstance(n_bootstrap, bool)
    if not is_int or n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be a positive int, got {n_bootstrap!r}")
    n_units, n_policies = unit_values.shape
    if n_units == 0:
        raise ValueError("paired_bootstrap needs at least one unit")
    mean_diff = unit_values.mean(axis=0)[:, None] - unit_values.mean(axis=0)[None, :]
    rng = np.random.default_rng(seed)
    # Resampled means, chunked over the bootstrap axis: with
    # decision-level units a comparison can have tens of thousands of rows,
    # and materialising the full (B, U, P) gather would cost hundreds of
    # MB for nothing but a mean. ~8M gathered elements per chunk keeps
    # the transient under ~64 MB at any scale.
    boot_means = np.empty((n_bootstrap, n_policies))
    chunk = max(1, int(8_000_000 // max(n_units * n_policies, 1)))
    for start in range(0, n_bootstrap, chunk):
        stop = min(start + chunk, n_bootstrap)
        idx = rng.integers(0, n_units, size=(stop - start, n_units))
        boot_means[start:stop] = unit_values[idx].mean(axis=1)
    # (B, P) resampled means → (B, P, P) pairwise diffs.
    diffs = boot_means[:, :, None] - boot_means[:, None, :]
    ci_lo = np.percentile(diffs, 2.5, axis=0)
    ci_hi = np.percentile(diffs, 97.5, axis=0)
    return mean_diff, ci_lo, ci_hi


def win_loss(unit_values: np.ndarray) -> np.ndarray:
    """(P, P) counts of units where the row policy strictly beats the column."""
    unit_values = _checked_units(unit_values)
    return (unit_values[:, :, None] > unit_values[:, None, :]).sum(axis=0)


def _checked_units(unit_values) -> np.ndarray:
    """``unit_values`` as a finite (units, policies) float array: a NaN
    would turn every interval into NaN and never win a comparison."""
    unit_values = np.asarray(unit_values, dtype=float)
    if unit_values.ndim != 2:
        raise ValueError("unit_values must be (units, policies)")
    if not np.isfinite(unit_values).all():
        raise ValueError("unit_values must be finite (no NaN or inf)")
    return unit_values
