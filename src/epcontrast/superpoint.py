"""Unsupervised segmentation of a scene into superpoint segments.

Points are clustered with Lloyd's algorithm on a 6-dimensional feature:
positions min-max normalized per axis to [0, 1] concatenated with colors
scaled by a configurable weight. The result is always a partition —
disjoint, covering, with no empty segment — because segment pooling
divides by segment sizes downstream. The ids come out compact, every id
in [0, M) used: repair leaves no cluster empty.

Lloyd starts from centers seeded on an occupied voxel grid
(:func:`_grid_seeds`), as VCCS (Papon et al., CVPR 2013) seeds
supervoxels: O(N) memory, and no factor of M in its time.

The assignment step scores points against centroids with one GEMM per
row block, against the features extended by a ones column so that the
centroid norms come out of the same product. Its block budget (in
:mod:`epcontrast.numcore`) is sized to stay in cache, and only each
point's nearest centroid is kept, so memory is O(N·7) plus one block
rather than O(N·M); the centroid update and the repair are O(N·6) too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PartitionError, ShapeError, require_integers
from .numcore import _col_extremes, _gemm_row_blocks, _segment_sums
from .pointcloud import PointCloud
from .rng import substream


@dataclass(frozen=True)
class SegmentAssignment:
    """Partition of point indices into ``num_segments`` segments of ``sizes`` points."""

    segment_of: np.ndarray
    num_segments: int
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seg = np.asarray(self.segment_of)
        if seg.dtype.kind not in "iu":
            raise PartitionError(f"segment ids must be integers, got dtype {seg.dtype}")
        if seg.ndim != 1:
            raise ShapeError(f"segment_of must be 1-D, got shape {seg.shape}")
        m = self.num_segments
        if not isinstance(m, numbers.Integral) or m < 1:
            raise PartitionError(f"num_segments must be an integer >= 1, got {m!r}")
        m = int(m)
        if seg.size == 0:
            raise PartitionError("segment_of must cover at least one point")
        # in the ids' own dtype: a uint64 id >= 2**63 would wrap in int64
        lo, hi = seg.min(), seg.max()
        if lo < 0 or hi >= m:
            raise PartitionError(f"segment ids must lie in [0, {m}), got range [{lo}, {hi}]")
        seg = np.ascontiguousarray(seg, dtype=np.int64)
        sizes = np.bincount(seg, minlength=m)
        if np.any(sizes == 0):
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise PartitionError(f"segment {empty} of {m} is empty")
        object.__setattr__(self, "segment_of", seg)
        object.__setattr__(self, "num_segments", m)
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class KMeansConfig:
    target_segments: int = 2000
    max_iters: int = 100
    tol: float = 1e-4
    color_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, target_segments=1, max_iters=1, seed=0)
        if not 0 <= self.tol < math.inf:
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        if not 0 <= self.color_weight < math.inf:
            raise ConfigError(f"color_weight must be finite and >= 0, got {self.color_weight}")


def segment_features(cloud: PointCloud, color_weight: float) -> np.ndarray:
    """N x 6 clustering features: unit-box positions + weighted colors.

    Positions are min-max normalized per axis over the scene; a degenerate
    axis (max == min) maps to 0.5 for every point.
    """
    pos = cloud.positions
    lo, hi = _col_extremes(pos)
    span = hi - lo
    normed = np.divide(pos - lo, span, out=np.full_like(pos, 0.5), where=span != 0.0)
    return np.hstack([normed, cloud.colors * color_weight])


# cells per axis of the finest grid the seeding tries: (g + 2)³ cell ids
# stay below 2⁶³, and the doubling search reaches it in 21 grids
_MAX_GRID = 1 << 20


def _grid_cells(pos: np.ndarray, g: int, shift: np.ndarray) -> np.ndarray:
    """Cell id of each unit-box position on a grid of g cells per axis whose
    origin sits ``shift`` (in cells, each in [0, 1)) below the box's.

    An axis index floor(x·g + shift) lies in [0, g], or is g + 1 where the
    sum rounds up to it, so ids in base g + 2 are distinct per cell."""
    ids = np.zeros(pos.shape[0], dtype=np.int64)
    for axis in range(3):
        ids *= g + 2
        ids += np.floor(pos[:, axis] * g + shift[axis]).astype(np.int64)
    return ids


def _occupied(ids: np.ndarray) -> int:
    """Number of distinct cell ids, from one sort: no array spans the grid."""
    s = np.sort(ids)
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def _grid_seeds(features: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Seed m centers at the feature means of occupied grid cells.

    The unit-box positions (the first three columns) are binned on cubic
    grids shifted by one ``rng.random(3)``, the only draw. g doubles from 1
    until m cells are occupied, and a bisection then finds a g with m or
    more whose g - 1 has fewer (occupancy need not grow with every step of
    g). The centers are the means of the m most populated cells, ties to
    the lower cell id. When _MAX_GRID leaves only k < m cells occupied, the
    points at indices (i * n) // (m - k), i < m - k, seed the rest; repeats
    leave clusters empty, which Lloyd's repair fills. Temporaries are O(N).
    """
    n = features.shape[0]
    pos = features[:, :3]
    shift = rng.random(3)
    lo, hi = 0, 1
    while (occupied := _occupied(_grid_cells(pos, hi, shift))) < m and hi < _MAX_GRID:
        lo, hi = hi, 2 * hi
    if occupied >= m:
        while hi - lo > 1:  # occupancy(lo) < m <= occupancy(hi)
            mid = (lo + hi) // 2
            if _occupied(_grid_cells(pos, mid, shift)) >= m:
                hi = mid
            else:
                lo = mid
    cells, cell_of, counts = np.unique(
        _grid_cells(pos, hi, shift), return_inverse=True, return_counts=True
    )
    k = min(m, cells.size)
    top = np.argsort(-counts, kind="stable")[:k]  # cells are sorted by id
    rank = np.full(cells.size, k)  # points of unchosen cells go to bin k
    rank[top] = np.arange(k)
    centers = np.empty((m, features.shape[1]))
    centers[:k] = _segment_sums(rank[cell_of], features, k + 1)[:k] / counts[top, None]
    centers[k:] = features[(np.arange(m - k) * n) // max(m - k, 1)]
    return centers


def _assign(xa: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> None:
    """labels[i] = argmin_j |x_i - c_j|², one row block at a time.

    ``xa`` holds the (N, D) features with a trailing ones column. Per row
    |x_i|² is a constant, so each block is scored by one GEMM against the
    (D+1, M) coefficients ``[-2·Cᵀ; |c|²]`` (scaling by -2 is exact), into
    one score buffer of at most _ASSIGN_BLOCK_BYTES reused for every block.
    gemm sums the D+1 products in order, |c|² last, so the scores are
    bitwise those of ``x @ (-2·C)ᵀ + |c|²``; a one-row block would go to
    gemv, which does not, so no block has one row.
    """
    m = centers.shape[0]
    coef = np.empty((xa.shape[1], m))
    np.multiply(centers.T, -2.0, out=coef[:-1])
    np.sum(centers**2, axis=1, out=coef[-1])
    blocks = _gemm_row_blocks(xa.shape[0], m)
    scores = np.empty((max(b.stop - b.start for b in blocks), m))
    for b in blocks:
        s = scores[: b.stop - b.start]
        np.matmul(xa[b], coef, out=s)
        np.argmin(s, axis=1, out=labels[b])


def _repair_empty(labels: np.ndarray, counts: np.ndarray, features: np.ndarray,
                  centers: np.ndarray) -> None:
    """Give each empty cluster the point farthest from its current centroid,
    updating ``labels`` and their per-cluster ``counts`` in place.

    Donor clusters must keep at least one member, so the partition invariant
    survives; moving the worst-placed point can only lower the objective.
    With no more clusters than points, an empty cluster means another holds
    two or more, so a donor always exists and no cluster stays empty.
    """
    if not np.any(counts == 0):
        return
    # np.sum((features - centers[labels]) ** 2, axis=1) in one (N, D) buffer
    resid = centers[labels]
    np.subtract(features, resid, out=resid)
    np.square(resid, out=resid)
    dist_to_own = np.add.reduce(resid, axis=1)
    del resid
    for empty in np.flatnonzero(counts == 0):
        donors = counts[labels] > 1
        candidates = np.where(donors, dist_to_own, -np.inf)
        thief = int(np.argmax(candidates))
        counts[labels[thief]] -= 1
        labels[thief] = empty
        counts[empty] += 1
        dist_to_own[thief] = 0.0


def lloyd_kmeans(
    features: np.ndarray,
    m: int,
    max_iters: int,
    tol: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations on precomputed features, seeded by :func:`_grid_seeds`
    on their first three columns, the unit-box positions.

    Returns (labels, centers, objective history). The objective — summed
    squared distance of points to their assigned centroid — is recorded
    after each update step and is non-increasing. Iteration stops once no
    centroid moves by ``tol`` or more: an absolute Euclidean shift in
    feature units, so with :func:`segment_features` the color part of it
    scales with ``color_weight``. Raises :class:`PartitionError` unless
    1 <= m <= N.
    """
    n, dim = features.shape
    if not 1 <= m <= n:
        raise PartitionError(f"cannot split {n} points into {m} segments: need 1 <= m <= {n}")
    centers = _grid_seeds(features, m, rng)
    xa = np.empty((n, dim + 1))
    xa[:, :dim] = features
    xa[:, dim] = 1.0
    labels = np.empty(n, dtype=np.int64)
    resid = np.empty((n, dim))
    history: list[float] = []
    for _ in range(max_iters):
        _assign(xa, centers, labels)
        counts = np.bincount(labels, minlength=m)
        _repair_empty(labels, counts, features, centers)
        new_centers = _segment_sums(labels, features, m)
        new_centers /= counts[:, None]
        # the ops of np.linalg.norm(new_centers - centers, axis=1): its bytes
        moved = new_centers - centers
        np.square(moved, out=moved)
        shift = float(np.max(np.sqrt(np.add.reduce(moved, axis=1))))
        centers = new_centers
        # (features - centers[labels]) ** 2 in one reused buffer; labels
        # are in range, and "clip" takes without the copy "raise" makes
        np.take(centers, labels, axis=0, out=resid, mode="clip")
        np.subtract(features, resid, out=resid)
        np.square(resid, out=resid)
        history.append(float(np.sum(resid)))
        if shift < tol:
            break
    return labels, centers, history


def kmeans_segments_with_history(
    cloud: PointCloud, cfg: KMeansConfig
) -> tuple[SegmentAssignment, list[float]]:
    """Segment a scene; also return the per-iteration Lloyd objective."""
    n = cloud.n
    m = min(cfg.target_segments, n)
    if m == n:
        # singleton partition: each point its own segment, ids by index
        return SegmentAssignment(np.arange(n, dtype=np.int64), n), []
    features = segment_features(cloud, cfg.color_weight)
    rng = substream(cfg.seed, 0)
    labels, _, history = lloyd_kmeans(features, m, cfg.max_iters, cfg.tol, rng)
    return SegmentAssignment(labels, m), history


def kmeans_segments(cloud: PointCloud, cfg: KMeansConfig) -> SegmentAssignment:
    """Partition a scene into min(cfg.target_segments, N) superpoint segments."""
    assignment, _ = kmeans_segments_with_history(cloud, cfg)
    return assignment
