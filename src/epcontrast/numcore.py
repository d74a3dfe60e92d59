"""Dense 64-bit float kernels underneath the contrastive losses.

A "matrix" throughout the package is a 2-D, C-contiguous float64 numpy
array with finite entries. :func:`as_matrix` establishes that once, at
the public loss entry points; the kernels here trust validated operands
and do not re-check them. The heavy lifting is delegated to numpy, the
eps-floored normalization and the row-block budget shared by the loss
kernels and the superpoint assignment live here.
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


def row_l2_normalize(m: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Divide each row by max(‖row‖₂, eps); zero rows stay zero."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    return m / np.maximum(norms, eps)[:, None]


def col_l2_normalize(m: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Column analog of :func:`row_l2_normalize` (used for channel maps)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    norms = np.sqrt(np.einsum("ij,ij->j", m, m))
    return m / np.maximum(norms, eps)[None, :]
