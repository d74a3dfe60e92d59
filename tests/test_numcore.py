"""Kernel contracts: eps-floored normalization."""

import numpy as np
import pytest

from epcontrast import row_l2_normalize


class TestRowL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            row_l2_normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-15
        )

    def test_zero_row_stays_zero(self):
        np.testing.assert_array_equal(
            row_l2_normalize(np.array([[0.0, 0.0]])), [[0.0, 0.0]]
        )

    def test_output_norms(self):
        rng = np.random.default_rng(0)
        out = row_l2_normalize(rng.normal(size=(4, 4)))
        norms = np.linalg.norm(out, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_idempotent_for_healthy_rows(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 5))
        m[np.linalg.norm(m, axis=1) < 1e-6] += 1.0
        once = row_l2_normalize(m)
        twice = row_l2_normalize(once)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            row_l2_normalize(np.eye(2), eps=0.0)

