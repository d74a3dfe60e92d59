"""Dense 64-bit float kernels underneath the contrastive losses.

A "matrix" throughout the package is a 2-D, C-contiguous float64 numpy
array with finite entries. :func:`as_matrix` establishes that once, at
the public loss entry points; the kernels here trust validated operands
and do not re-check them. The heavy lifting is delegated to numpy, the
eps-floored normalization lives here.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError, ShapeError

DEFAULT_EPS = 1e-12


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
