"""Tests for the MSE loss: values, gradients, masking."""

import numpy as np
import pytest

from repro.nn.losses import mse_loss


class TestMSE:
    def test_zero_at_match(self, rng):
        x = rng.random((3, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_known_value(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, grad = mse_loss(pred, target)
        assert loss == pytest.approx((1 + 4) / 2)
        np.testing.assert_allclose(grad, [[1.0, 2.0]])

    def test_mask_restricts_loss(self):
        pred = np.array([[1.0, 100.0]])
        target = np.zeros((1, 2))
        mask = np.array([[1.0, 0.0]])
        loss, grad = mse_loss(pred, target, mask=mask)
        assert loss == pytest.approx(1.0)
        assert grad[0, 1] == 0.0

    def test_gradient_matches_finite_difference(self, rng):
        pred = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 3))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                p = pred.copy()
                p[i, j] += eps
                up, _ = mse_loss(p, target)
                p[i, j] -= 2 * eps
                dn, _ = mse_loss(p, target)
                assert grad[i, j] == pytest.approx((up - dn) / (2 * eps), rel=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((1, 2)), np.zeros((2, 1)))
