"""Dense 64-bit float kernels underneath the contrastive losses.

A "matrix" throughout the package is a 2-D, C-contiguous float64 numpy
array with finite entries. :func:`as_matrix` establishes that once, at
the public loss entry points; the kernels here trust validated operands
and do not re-check them. The heavy lifting is delegated to numpy. The
row-block budget shared by the loss kernels and the superpoint assignment
lives here, as does the eps-floored L2 normalization of rows, forward and
backward, that all three losses use.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError, ShapeError

DEFAULT_EPS = 1e-12

# Row-blocked kernels (the pc and ag losses, the k-means assignment) walk
# their rows in blocks whose float64 buffer stays within this many bytes.
# Blocks of 2-16 MiB ran pc at N = 4000 and ag at N = 16384, M = 2000 a
# quarter to a third faster than one full buffer (64 MiB: no gain), and
# 1-16 MiB budgets segmented six N = 8192, M = 256 scenes in the same time.
# 8 MiB is the smallest budget that keeps a desk-scale 1024 x 1024 pc
# buffer in one block, where results keep their bytes; more blocks sum the
# key gradient in another order.
_BLOCK_BYTES = 8 << 20


def _row_blocks(n: int, row_len: int) -> list[slice]:
    """Consecutive row slices covering range(n), each holding at most
    _BLOCK_BYTES of float64 rows of ``row_len`` entries (one row when a
    single row is larger)."""
    step = max(1, _BLOCK_BYTES // (8 * row_len))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``data`` to a 2-D float64 array with finite entries."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise RangeError(f"{name} contains non-finite entries")
    return m


def _unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of ``m`` and their divisors max(‖row‖₂, eps); the unit rows
    keep ``m``'s memory layout, so a transposed view gives unit columns."""
    d = np.maximum(np.sqrt(np.einsum("ij,ij->i", m, m)), DEFAULT_EPS)
    return m / d[:, None], d


def _unit_rows_backward(g: np.ndarray, hat: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient through :func:`_unit_rows` from its outputs, formed in ``g``'s
    buffer and using up ``hat``; rows at the eps floor get g / eps."""
    dots = np.einsum("ij,ij->i", g, hat) * (d > DEFAULT_EPS)
    hat *= dots[:, None]
    g -= hat
    g /= d[:, None]
    return g


def row_l2_normalize(m: np.ndarray) -> np.ndarray:
    """Divide each row by max(‖row‖₂, eps); zero rows stay zero."""
    return _unit_rows(m)[0]
