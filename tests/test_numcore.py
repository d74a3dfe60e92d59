"""Kernel contracts: row blocks, eps-floored normalization, forward and backward."""

import numpy as np

from epcontrast import numcore
from epcontrast.numcore import DEFAULT_EPS, _unit_rows, _unit_rows_backward
from epcontrast.selfcheck import central_diff, rel_err


class TestRowL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            _unit_rows(np.array([[3.0, 4.0]]))[0], [[0.6, 0.8]], atol=1e-15
        )

    def test_zero_row_stays_zero(self):
        np.testing.assert_array_equal(
            _unit_rows(np.array([[0.0, 0.0]]))[0], [[0.0, 0.0]]
        )

    def test_output_norms(self):
        rng = np.random.default_rng(0)
        out = _unit_rows(rng.normal(size=(4, 4)))[0]
        norms = np.linalg.norm(out, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_idempotent_for_healthy_rows(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 5))
        m[np.linalg.norm(m, axis=1) < 1e-6] += 1.0
        once = _unit_rows(m)[0]
        twice = _unit_rows(once)[0]
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)


class TestUnitRowsBackward:
    def test_live_rows_match_differences_and_floored_rows_see_g_over_eps(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 4))
        x[1] = 0.0
        x[3] *= 1e-13 / np.linalg.norm(x[3])  # below the eps floor, not zero
        g = rng.normal(size=x.shape)
        hat, d = _unit_rows(x)
        back = g.copy()
        assert _unit_rows_backward(back, hat, d) is back
        live = [0, 2, 4]
        num = central_diff(lambda y: float(np.sum(g * _unit_rows(y)[0])), x)
        assert rel_err(back[live], num[live]) <= 1e-5
        np.testing.assert_array_equal(back[[1, 3]], g[[1, 3]] / DEFAULT_EPS)



class TestRowBlocks:
    def test_loss_blocks_never_leave_one_row(self, monkeypatch):
        """The pc and ag score GEMMs run per block, and numpy sends a
        one-row matmul to gemv; a one-row tail joins the block before it."""
        for step in (2, 3, 5):
            monkeypatch.setattr(numcore, "_BLOCK_BYTES", 8 * 7 * step)
            for n in range(1, 40):
                blocks = numcore._row_blocks(n, 7)
                sizes = [b.stop - b.start for b in blocks]
                assert blocks[0].start == 0 and blocks[-1].stop == n
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
                assert min(sizes) >= 2 or n == 1
                assert max(sizes) <= step + 1


def test_col_extremes_are_the_axis_zero_reductions():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 1024):
        m = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=3)
        m[rng.integers(n, size=n // 3)] = m[0]  # ties
        lo, hi = numcore._col_extremes(m)
        assert lo.tobytes() == m.min(axis=0).tobytes()
        assert hi.tobytes() == m.max(axis=0).tobytes()
