"""Paired bootstrap and win/loss counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.stats import paired_bootstrap, win_loss


class TestPairedBootstrap:
    def test_mean_diff_antisymmetric_and_ci_ordered(self):
        rng = np.random.default_rng(0)
        units = rng.normal(size=(20, 3))
        mean_diff, lo, hi = paired_bootstrap(units, n_bootstrap=200, seed=1)
        np.testing.assert_allclose(mean_diff, -mean_diff.T, atol=1e-12)
        assert (lo <= hi).all()
        assert (np.diag(mean_diff) == 0).all()

    def test_deterministic_in_seed(self):
        units = np.random.default_rng(3).normal(size=(10, 2))
        a = paired_bootstrap(units, n_bootstrap=100, seed=7)
        b = paired_bootstrap(units, n_bootstrap=100, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_clear_separation_excludes_zero(self):
        """A policy better on every unit gets a CI strictly above zero."""
        better = np.linspace(0.8, 0.9, 12)
        worse = np.linspace(0.2, 0.3, 12)
        _, lo, _ = paired_bootstrap(
            np.column_stack([better, worse]), n_bootstrap=500, seed=0
        )
        assert lo[0, 1] > 0.0

    def test_rejects_empty_units(self):
        with pytest.raises(ValueError, match="at least one unit"):
            paired_bootstrap(np.zeros((0, 2)))

    @pytest.mark.parametrize("n_bootstrap", [0, -3, 2.5, True])
    def test_rejects_a_bootstrap_count_below_one(self, n_bootstrap):
        """0 used to raise IndexError from np.percentile, and a negative
        count NumPy's "negative dimensions" error."""
        with pytest.raises(ValueError, match="n_bootstrap"):
            paired_bootstrap(np.ones((4, 2)), n_bootstrap=n_bootstrap)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_unit(self, bad):
        """A NaN unit used to turn every interval into NaN."""
        units = np.ones((4, 2))
        units[2, 1] = bad
        with pytest.raises(ValueError, match="unit_values"):
            paired_bootstrap(units, n_bootstrap=10)


class TestWinLoss:
    def test_counts_strict_wins(self):
        units = np.array([[0.9, 0.1], [0.8, 0.2], [0.5, 0.5]])
        wins = win_loss(units)
        assert wins[0, 1] == 2  # ties count for neither side
        assert wins[1, 0] == 0
        assert (np.diag(wins) == 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_unit(self, bad):
        """A NaN unit used to count silently as never winning."""
        units = np.array([[0.9, 0.1], [bad, 0.2]])
        with pytest.raises(ValueError, match="unit_values"):
            win_loss(units)
