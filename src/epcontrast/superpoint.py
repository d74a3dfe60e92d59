"""Unsupervised segmentation of a scene into superpoint segments.

Points are clustered with Lloyd's algorithm (k-means++ seeding) on a
6-dimensional feature: positions min-max normalized per axis to [0, 1]
concatenated with colors scaled by a configurable weight. The result is
always a partition — disjoint, covering, with no empty segment — because
segment pooling divides by segment sizes downstream. The ids come out
compact, every id in [0, M) used: repair leaves no cluster empty.

The assignment step scores points against centroids with one GEMM per
row block, against the features extended by a ones column so that the
centroid norms come out of the same product. Its block budget (in
:mod:`epcontrast.numcore`) is sized to stay in cache, and only each
point's nearest centroid is kept, so memory is O(N·7) plus one block
rather than O(N·M); the seeding and the centroid update are O(N·6) too.

The k-means++ seeding keeps its D² weights in fixed-size blocks of
points, so a weighted pick sums the blocks and searches the block sums
and then one block; it uses the generator exactly as ``rng.choice(n,
p=d2 / d2.sum())`` would, and picks as it does except for a draw within
rounding of a boundary between two points.
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
        seg = np.ascontiguousarray(seg, dtype=np.int64)
        if seg.ndim != 1:
            raise ShapeError(f"segment_of must be 1-D, got shape {seg.shape}")
        m = self.num_segments
        if not isinstance(m, numbers.Integral) or m < 1:
            raise PartitionError(f"num_segments must be an integer >= 1, got {m!r}")
        m = int(m)
        if seg.size == 0:
            raise PartitionError("segment_of must cover at least one point")
        if seg.min() < 0 or seg.max() >= m:
            raise PartitionError(
                f"segment ids must lie in [0, {m}), got range [{seg.min()}, {seg.max()}]"
            )
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


# points per block of the seeding's D² weights: a weighted pick sums every
# block but runs its sequential cumulative sums over the block sums and one
# block, not over every point
_SEED_BLOCK = 64


def _sq_dists_to(cols: np.ndarray, center: np.ndarray, buf: np.ndarray, out: np.ndarray):
    """out[i] = |x_i - center|² from the (D, N) feature columns ``cols``;
    ``buf`` is a (D, N) work buffer.

    einsum adds the D squares of a column in order, in one pass over
    ``buf``, to the bytes of ``np.sum((x - center) ** 2, axis=1)`` over
    (N, D) rows; a test checks this on features of mixed magnitudes.
    """
    np.subtract(cols, center[:, None], out=buf)
    np.einsum("ij,ij->j", buf, buf, out=out)


def _kmeans_pp_init(features: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest D²-weighted.

    The weights live zero-padded in (nb, _SEED_BLOCK) blocks. A weighted
    pick draws one ``rng.random()`` scaled by the total weight, finds its
    block on the cumulative block sums and its point on the cumulative sum
    inside that block; only the block sums span all N points. When no
    weight is left (every point sits on a chosen center) the pick is one
    uniform ``rng.integers(n)``, as in ``rng.choice(n, p=d2 / d2.sum())``,
    so the generator is called as often, and in the same order, as that
    form would call it.

    Every weighted pick has positive weight, so no center repeats while
    weight is left. Two roundings could overshoot, and each takes the
    last point with weight where it ran out: the scaled draw can round up
    to the total when that is subnormal, and a block's pairwise sum can
    exceed the end of its own sequential cumulative sum. The pick is ``rng.choice``'s
    unless the draw falls within rounding of a boundary between two
    points: the tests compare both forms, and the centers, labels and
    Lloyd histories of the ``segment_large`` scenes (seeds 0-9) and the
    desk scenes (seeds 0-4) kept their bytes when this draw replaced it.
    """
    n, dim = features.shape
    cols = features.T.copy()
    buf = np.empty_like(cols)
    nb = -(-n // _SEED_BLOCK)
    d2_blocks = np.zeros((nb, _SEED_BLOCK))
    d2 = d2_blocks.reshape(-1)[:n]  # the padding stays zero
    cand = np.empty(n)
    cum = np.empty(nb)
    centers = np.empty((m, dim))
    centers[0] = features[rng.integers(n)]
    _sq_dists_to(cols, centers[0], buf, d2)
    for k in range(1, m):
        np.add.reduce(d2_blocks, axis=1, out=cum)
        np.cumsum(cum, out=cum)
        total = cum[-1]
        if total <= 0.0:
            # all remaining mass sits on the chosen centers; pick uniformly
            idx = rng.integers(n)
        else:
            t = rng.random() * total
            blk = cum.searchsorted(t, side="right")
            if blk == nb:  # t rounded up to the total
                blk = cum.searchsorted(total, side="left")
            inner = np.cumsum(d2_blocks[blk])
            j = inner.searchsorted(t - cum[blk - 1] if blk else t, side="right")
            if j == _SEED_BLOCK:  # the block's pairwise sum exceeds its cumsum
                j = inner.searchsorted(inner[-1], side="left")
            idx = blk * _SEED_BLOCK + j
        centers[k] = features[idx]
        _sq_dists_to(cols, centers[k], buf, cand)
        np.minimum(d2, cand, out=d2)
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
    dist_to_own = np.sum((features - centers[labels]) ** 2, axis=1)
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
    """Lloyd iterations on precomputed features.

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
    centers = _kmeans_pp_init(features, m, rng)
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
