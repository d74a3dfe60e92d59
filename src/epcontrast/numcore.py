"""Dense 64-bit float kernels underneath the contrastive losses.

A "matrix" throughout the package is a 2-D, C-contiguous float64 numpy
array with finite entries. :func:`as_matrix` establishes that once, at
the public loss entry points; the kernels here trust validated operands
and do not re-check them. The heavy lifting is delegated to numpy. The
row-block budgets of the loss kernels and of the superpoint assignment
live here, as does the eps-floored L2 normalization of rows, forward and
backward, that the point and segment losses use; the channel loss takes
only the eps-floored column norms. :func:`_segment_sums` is the one
per-segment sum, shared by segment pooling and the k-means centroid update,
and :func:`_col_extremes` the one per-axis minimum and maximum, shared by
the encoder's and the segmenter's position features.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError, ShapeError

DEFAULT_EPS = 1e-12

# The pc and ag loss kernels walk their rows in blocks whose float64 buffer
# stays within this many bytes. Blocks of 2-16 MiB ran pc at N = 4000 and
# ag at N = 16384, M = 2000 a quarter to a third faster than one full
# buffer (64 MiB: no gain), and faster than 512 KiB blocks (pc 0.24 against
# 0.34 s, ag 0.475 against 0.548 s). 8 MiB is the smallest budget that
# keeps a desk-scale 1024 x 1024 pc buffer in one block, where results
# keep their bytes; more blocks sum the key gradient in another order.
_BLOCK_BYTES = 8 << 20

# The superpoint assignment does 7 multiply-adds per score, so its time
# goes to writing its score block and reading it back for the argmin,
# which is fastest while the block stays in cache. On a host with a 2 MiB
# L2 cache, before the fused GEMM, six N = 8192, M = 256 scenes segmented
# in 1.23 s at 8 MiB, 1.18 s at 2 MiB, 1.00 s at 1 MiB, 0.97 s at 512 KiB,
# 0.99 s at 256 KiB and 1.08 s at 128 KiB blocks. The channel loss takes its
# elementwise gradient update in blocks of the same size.
_ASSIGN_BLOCK_BYTES = 512 << 10


def _blocks(n: int, row_len: int, budget: int) -> list[slice]:
    """Consecutive row slices covering range(n), each holding at most
    ``budget`` bytes of float64 rows of ``row_len`` entries, none with a
    single row unless n == 1.

    numpy hands a one-row matmul to gemv, which rounds a sum differently
    from gemm, so a one-row tail joins the block before it and a block
    holds two rows when two rows already exceed the budget.
    """
    step = max(2, budget // (8 * row_len))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _row_blocks(n: int, row_len: int) -> list[slice]:
    """The pc and ag loss kernels' row blocks: :func:`_blocks` within
    _BLOCK_BYTES."""
    return _blocks(n, row_len, _BLOCK_BYTES)


def _gemm_row_blocks(n: int, row_len: int) -> list[slice]:
    """Cache-sized row blocks: :func:`_blocks` within _ASSIGN_BLOCK_BYTES."""
    return _blocks(n, row_len, _ASSIGN_BLOCK_BYTES)


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


def _col_norms(m: np.ndarray) -> np.ndarray:
    """The divisors max(‖column‖₂, eps) of ``m``'s columns."""
    return np.maximum(np.sqrt(np.einsum("ij,ij->j", m, m)), DEFAULT_EPS)


def _unit_rows_backward(g: np.ndarray, hat: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient through :func:`_unit_rows` from its outputs, formed in ``g``'s
    buffer and using up ``hat``; rows at the eps floor get g / eps."""
    dots = np.einsum("ij,ij->i", g, hat) * (d > DEFAULT_EPS)
    hat *= dots[:, None]
    g -= hat
    g /= d[:, None]
    return g


def _segment_sums(ids: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """(m, C) sums of the rows of the (N, C) ``x`` per id in [0, m); one
    bincount per column adds each segment's rows in index order."""
    sums = np.empty((m, x.shape[1]))
    for j in range(x.shape[1]):
        sums[:, j] = np.bincount(ids, x[:, j], minlength=m)
    return sums


def _col_extremes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column minimum and maximum of the narrow (N, D) ``m``.

    They are reduced along the rows of a (D, N) copy: numpy 2.4's axis-0 min
    and max of an (N, 3) array took about 70 µs together at N = 1024,
    against 9 µs for the copy and both row reductions. A minimum or maximum
    is the same whatever the order it is taken in, up to the sign of a zero
    extreme, so these are the values of ``m.min(axis=0)`` and
    ``m.max(axis=0)``. Sums and means are not: their bytes depend on the
    order, so they stay on the rows.
    """
    cols = m.T.copy()
    return cols.min(axis=1), cols.max(axis=1)
