"""Contrastive losses over paired embeddings: exact values and gradients.

Three pair schemes share one softmax core:

* point loss — positives are matched point indices (i, i) across the two
  views, negatives all cross-view pairs (i, j), i != j; sampled, the same
  loss on s = round(sqrt(N (k + 1))) points, about N (k + 1) pairs;
* asymmetric-granularity loss — view-1 points are queries, view-2 segment
  means are keys; the positive for point i is its own segment, negatives
  are all other segments;
* channel loss — the columns (channel maps) of the two embeddings are
  contrasted, with the *absolute* similarity on negative channel pairs so
  that minimizing the loss pushes distinct channels toward orthogonality.

Each anchor contributes -log(exp(s_pos/tau) / sum exp(s_neg/tau)); by
default the positive is excluded from the denominator, exactly as the pair
sets are written, and a flag restores the conventional softmax form. The
combined objective is the asymmetric-granularity loss plus ``lam`` times
the channel loss.

The point and segment losses score query rows against key rows in row
blocks of bounded size (:func:`_rows_contrast`), so their memory does not
grow with the full (queries x keys) score matrix, and normalize through
:mod:`epcontrast.numcore`'s eps-floored L2 normalization of rows, forward
and backward. The channel loss builds no normalized copy of its views: it
divides one C x C Gram matrix by the eps-floored column norms and carries
those divisors into its gradients.

The softmax core (:func:`_softmax_rows`) exponentiates the scores as they
are while the caller's bound on them (1/tau for unit rows, from the row
or column norms otherwise) is below ``_NO_SHIFT_LIMIT``, where exp can
neither overflow nor leave the normal range; beyond it, each row is
shifted by its maximum first. It hands back each anchor's gradient scale
instead of applying it, and the callers fold that scale into the
gradient products they take next, so a full score block is written by
one GEMM, read and written by one exp, read by one row sum and read by
the two gradient GEMMs.

One table, :data:`KINDS`, holds what differs between the loss kinds: the
evaluator, the loop oracle, the pair formula, and whether the kind reads a
segment assignment, contrasts points and contrasts channels. Every loss has
a brute-force twin (:func:`brute_force_loss`) sharing no code path with the
evaluators: each pair scheme prepares its rows and walks them with one
plain-Python anchor loop, both directions of a symmetric segment loss
included; the sweeps in :mod:`epcontrast.selfcheck` pit the two against
each other.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError, EmptyNegativeSetError, PartitionError, RangeError, ShapeError, require_integers,
)
from .numcore import (
    DEFAULT_EPS,
    _col_norms,
    _gemm_row_blocks,
    _row_blocks,
    _segment_sums,
    _unit_rows,
    _unit_rows_backward,
    as_matrix,
)
from .superpoint import SegmentAssignment


@dataclass(frozen=True)
class LossConfig:
    """Temperature, weighting, and pair-handling switches shared by all losses.

    ``reduction`` is "sum" (the losses as written) or "mean" (per positive,
    which keeps the learning rate independent of scene size).
    ``neg_sample_count`` = k sets the point loss's pair budget, N (k + 1),
    spent on a subset of round(sqrt(N (k + 1))) points; None means all N.
    """

    tau: float = 1.0
    lam: float = 0.1
    normalize_rows: bool = True
    normalize_channels: bool = True
    include_positive_in_denominator: bool = False
    reduction: str = "mean"
    neg_sample_count: int | None = None
    symmetric_ag: bool = False

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and positive, got {self.tau}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lam must be finite and non-negative, got {self.lam}")
        if self.reduction not in ("sum", "mean"):
            raise ConfigError(f"reduction must be 'sum' or 'mean', got {self.reduction!r}")
        if self.neg_sample_count is not None:
            require_integers(self, neg_sample_count=1)


@dataclass(frozen=True)
class LossOutput:
    """A loss value, its gradients with respect to both views, and the named
    terms the value sums.

    :func:`point_infonce`, :func:`ag_contrast` and :func:`channel_contrast`
    name their one term "pc", "ag" or "cc". :func:`ep_contrast` names the
    "ag" value and the unweighted "cc" value, and its value is
    ``terms["ag"] + lam * terms["cc"]`` bit for bit; at lam 0 the channel
    loss is not evaluated and "ag" is the only term.
    """

    value: float
    grad_f1: np.ndarray
    grad_f2: np.ndarray
    terms: Mapping[str, float] = field(default_factory=dict)


def _term(name: str, out: LossOutput) -> LossOutput:
    """``out`` with its value as its one term ``name``."""
    return LossOutput(out.value, out.grad_f1, out.grad_f2, {name: out.value})


class EvalCounter:
    """Counts similarity evaluations inside the brute-force oracles."""

    def __init__(self):
        self.count = 0

    def bump(self, k: int = 1):
        self.count += k


def _lookup(kind: str, seg: SegmentAssignment | None = None, *, pairs: bool = False) -> LossKind:
    """The :data:`KINDS` entry of ``kind``; ConfigError if it is unknown,
    has no pair formula when ``pairs`` is set, or else misses its ``seg``."""
    names = PAIR_KINDS if pairs else KINDS
    if kind not in names:
        what = "pair scheme" if pairs else "loss kind"
        raise ConfigError(f"unknown {what} {kind!r}; expected one of {'/'.join(names)}")
    spec = KINDS[kind]
    if not pairs and spec.segmented and seg is None:
        raise ConfigError(f"loss kind {kind!r} needs a segment assignment")
    return spec


def count_pairs(kind: str, n: int, m: int, c: int) -> tuple[int, int]:
    """(positive, negative) pair counts of a scheme in :data:`PAIR_KINDS`
    at the given integer sizes; ``m`` matters to segmented schemes only,
    which cannot split n points into more than n segments."""
    spec = _lookup(kind, pairs=True)
    for name, size in (("n", n), ("m", m), ("c", c)):
        if not isinstance(size, numbers.Integral):
            raise RangeError(f"{name} must be an integer, got {size!r}")
    if min(n, m, c) < 1:
        raise RangeError(f"sizes must be >= 1, got n={n}, m={m}, c={c}")
    if spec.segmented and m > n:
        raise PartitionError(f"cannot split {n} points into {m} segments: need m <= {n}")
    return spec.pairs(n, m, c)


# ---------------------------------------------------------------------------
# shared softmax core
# ---------------------------------------------------------------------------

# Scores bounded by this are exponentiated without a row-max shift. e^s for
# |s| < 512 is a normal float64 in [4e-223, 3e222], and a sum of up to
# e^197 such terms stays below the largest float64, e^709.78.
_NO_SHIFT_LIMIT = 512.0


def _softmax_rows(scores, pos_col, cfg, bound, anchors, first=0):
    """Per-anchor -log softmax terms of a block of anchors, and the row
    scales of its gradient.

    scores: (A, K) scores on the 1/tau scale (similarity over tau, abs
         applied where the scheme demands it), anchor a's positive at
         column ``pos_col[a]`` and -inf at every entry outside its
         negative set.
    bound: an upper bound on every |score|.
    anchors: anchors the loss reduces over; a row block of a larger loss
         passes the full count so "mean" scales by it.
    first: the global index of the block's first anchor.

    Returns ``(terms, r)``. ``scores`` becomes E, the exponentiated scores
    with ``(pos_w - 1) * denom`` at each positive, where denom is the
    anchor's softmax denominator and pos_w the positive's share of it (0
    when the positive is excluded). ``E * r[:, None]`` with
    ``r = scale / tau / denom`` is the gradient of the loss with respect
    to the unscaled similarities, so a caller folds ``r`` into the product
    it takes next rather than rescaling the block.

    While ``bound`` is below _NO_SHIFT_LIMIT the scores are exponentiated
    as they are: the block is read by one ``exp`` and one row sum, and an
    anchor with no negative is the one whose denominator is 0. Otherwise
    each row is shifted by its maximum (and the positive's score, when it
    is in the denominator) first, and an anchor with no negative is the
    one whose row maximum is -inf. Either raises
    :class:`EmptyNegativeSetError` naming the anchor.
    """
    rows = np.arange(scores.shape[0])
    pos = scores[rows, pos_col]
    scores[rows, pos_col] = -np.inf
    if bound < _NO_SHIFT_LIMIT:
        hi = 0.0
        np.exp(scores, out=scores)  # excluded entries exp(-inf) -> exactly 0
        denom = scores.sum(axis=1)
        empty = denom == 0.0  # every other entry is at least e^-512
    else:
        hi = scores.max(axis=1)
        empty = hi == -np.inf
        hi[empty] = 0.0  # no -inf - -inf; the anchor is reported below
        if cfg.include_positive_in_denominator:
            hi = np.maximum(hi, pos)
        scores -= hi[:, None]
        np.exp(scores, out=scores)
        denom = scores.sum(axis=1)
    if empty.any():
        raise EmptyNegativeSetError(
            f"anchor {first + np.flatnonzero(empty)[0]} has an empty negative set"
        )
    if cfg.include_positive_in_denominator:
        pos_e = np.exp(pos - hi)
        denom += pos_e
        pos_w = pos_e / denom
    else:
        pos_w = 0.0
    scores[rows, pos_col] = (pos_w - 1.0) * denom
    scale = 1.0 if cfg.reduction == "sum" else 1.0 / anchors
    return hi + np.log(denom) - pos, (scale / cfg.tau) / denom


def _reduce(terms: np.ndarray, reduction: str) -> float:
    """Loss value from the per-anchor terms."""
    return float(terms.sum() if reduction == "sum" else terms.mean())


# ---------------------------------------------------------------------------
# segment pooling
# ---------------------------------------------------------------------------


def _check_covers(seg: SegmentAssignment, f: np.ndarray) -> None:
    """Raise ShapeError unless ``seg`` assigns exactly the rows of ``f``."""
    if seg.segment_of.shape[0] != f.shape[0]:
        raise ShapeError(
            f"segment assignment covers {seg.segment_of.shape[0]} points, "
            f"embedding has {f.shape[0]} rows"
        )


def _segment_mean(f, seg):
    """Per-segment means of a validated matrix whose rows ``seg`` covers."""
    return _segment_sums(seg.segment_of, f, seg.num_segments) / seg.sizes[:, None]


def segment_pool_backward(grad_pooled: np.ndarray, seg: SegmentAssignment) -> np.ndarray:
    """Distribute each segment's gradient equally over its member points."""
    return (grad_pooled / seg.sizes[:, None])[seg.segment_of]


# ---------------------------------------------------------------------------
# the losses
# ---------------------------------------------------------------------------


def _point_subset(n: int, k: int | None, rng: np.random.Generator | None):
    """Sorted indices of s = round(sqrt(n (k + 1))) <= n - 1 of the n points,
    drawn uniformly from ``rng`` in one call; None, with no draw, when k is
    None or at least n - 1, where the point loss contrasts every point."""
    if k is None or k >= n - 1:
        return None
    if rng is None:
        raise ConfigError("negative sampling requires a random stream")
    return np.sort(rng.choice(n, round(math.sqrt(n * (k + 1))), replace=False, shuffle=False))


def _row_norm_max(m):
    """The largest row norm of ``m``, floored at 1."""
    return max(1.0, float(np.sqrt(np.einsum("ij,ij->i", m, m).max())))


def _rows_contrast(fq, fk, pos_col, cfg):
    """Contrast each query row with the key rows; row i's positive is key
    ``pos_col[i]`` and its negatives are every other key.

    Returns the value and the gradients with respect to fq and fk. The
    queries are walked in row blocks whose score buffer (rows x keys) stays
    within _BLOCK_BYTES. The scores come from the queries divided by tau
    once, and the per-anchor terms are reduced once, after the last block.

    Each block's buffer is written by the score GEMM, turned into E by the
    softmax core, and read by the two gradient GEMMs, which take the row
    scale ``r`` on their (rows x C) side: ``(E @ keys) * r`` for the
    queries and ``(queries * r).T @ E`` for the keys, whose gradient is
    summed over the blocks as C x keys and transposed once at the end.

    The bound handed to the core is B = max(‖q‖/tau, 1) * max(‖k‖, 1) over
    the rows (1/tau for unit rows and tau <= 1). Below _NO_SHIFT_LIMIT it
    keeps every product finite with no shift: |score| <= B, so an entry of
    E @ keys is at most K e^B B; an entry of queries * r is at most
    ‖q‖ (scale/tau) e^B <= B e^B, since the denominator is at least e^-B;
    and each term of (queries * r).T @ E is at most ‖q‖ scale/tau <= B.
    """
    hq, hk = fq, fk
    if cfg.normalize_rows:
        (hq, dq), (hk, dk) = _unit_rows(fq), _unit_rows(fk)
    sq = hq / cfg.tau
    bound = _row_norm_max(sq) * _row_norm_max(hk)
    n, c = hq.shape
    terms = np.empty(n)
    ghq = np.empty((n, c))
    # both GEMMs with the keys run 3-20% faster, to the same bytes, on a
    # C-ordered copy of the keys' transpose than on the keys themselves
    hk_t = np.ascontiguousarray(hk.T)
    for b in _row_blocks(n, hk.shape[0]):
        d = sq[b] @ hk_t
        terms[b], r = _softmax_rows(d, pos_col[b], cfg, bound, n, b.start)
        ghq[b] = d @ hk_t.T
        ghq[b] *= r[:, None]
        part = (hq[b] * r[:, None]).T @ d
        if b.start == 0:
            ghk_t = part
        else:
            ghk_t += part
        del d  # free this block's buffer before the next one is allocated
    ghk = np.ascontiguousarray(ghk_t.T)
    if cfg.normalize_rows:
        ghq = _unit_rows_backward(ghq, hq, dq)
        ghk = _unit_rows_backward(ghk, hk, dk)
    return LossOutput(_reduce(terms, cfg.reduction), ghq, ghk)


def _view_pair(f1, f2):
    """The two views as validated matrices of one shape."""
    f1 = as_matrix(f1, "f1")
    f2 = as_matrix(f2, "f2")
    if f1.shape != f2.shape:
        raise ShapeError(f"view embeddings differ: {f1.shape} vs {f2.shape}")
    return f1, f2


def point_infonce(
    f1: np.ndarray,
    f2: np.ndarray,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
) -> LossOutput:
    """Point-level contrastive loss between matched views.

    Positives are the matched indices (i, i); negatives all (i, j) with
    j != i. With ``cfg.neg_sample_count`` = k below N - 1 it is, bit for
    bit, this loss on the rows ``idx`` that :func:`_point_subset` draws
    from ``rng`` (s * s pairs, about N (k + 1)), with 0 gradient elsewhere.
    """
    f1, f2 = _view_pair(f1, f2)
    n = f1.shape[0]
    if n < 2:
        raise EmptyNegativeSetError("point loss needs N >= 2 for a negative set")

    idx = _point_subset(n, cfg.neg_sample_count, rng)
    if idx is None:
        return _term("pc", _rows_contrast(f1, f2, np.arange(n), cfg))
    out = _rows_contrast(f1[idx], f2[idx], np.arange(idx.size), cfg)
    g1, g2 = np.zeros_like(f1), np.zeros_like(f2)
    g1[idx], g2[idx] = out.grad_f1, out.grad_f2
    return LossOutput(out.value, g1, g2, {"pc": out.value})


def _ag_directional(fq, fk, seg, cfg):
    """Queries fq (points) against pooled keys from fk (segments)."""
    out = _rows_contrast(fq, _segment_mean(fk, seg), seg.segment_of, cfg)
    return LossOutput(out.value, out.grad_f1, segment_pool_backward(out.grad_f2, seg))


def ag_contrast(
    f1: np.ndarray,
    f2: np.ndarray,
    seg: SegmentAssignment,
    cfg: LossConfig,
) -> LossOutput:
    """Asymmetric-granularity loss: view-1 points vs view-2 segment means.

    Directional by construction; ``cfg.symmetric_ag`` averages the two
    directions instead. With singleton segments (M == N, identity ids)
    this reduces bitwise to :func:`point_infonce`.
    """
    return _term("ag", _ag_views(*_view_pair(f1, f2), seg, cfg))


def _ag_views(f1, f2, seg, cfg):
    """:func:`ag_contrast` of views that :func:`_view_pair` has validated."""
    _check_covers(seg, f1)
    if seg.num_segments < 2:
        raise EmptyNegativeSetError(
            "segment loss needs M >= 2 so every point has a negative segment"
        )
    fwd = _ag_directional(f1, f2, seg, cfg)
    if not cfg.symmetric_ag:
        return fwd
    rev = _ag_directional(f2, f1, seg, cfg)
    return LossOutput(
        0.5 * (fwd.value + rev.value),
        0.5 * (fwd.grad_f1 + rev.grad_f2),
        0.5 * (fwd.grad_f2 + rev.grad_f1),
    )


def channel_contrast(f1: np.ndarray, f2: np.ndarray, cfg: LossConfig) -> LossOutput:
    """Channel-map contrastive loss pushing distinct channels orthogonal.

    Negative pairs enter the denominator through the absolute similarity,
    so both correlated and anti-correlated channel pairs are penalized;
    the positive numerator keeps its sign. The subgradient of |x| at 0 is
    taken to be 0.

    The cosines come from one C x C Gram matrix of the raw columns divided
    by their norms max(‖col‖₂, eps), and each gradient is one (N, C) x
    (C, C) product less a per-channel multiple of the view itself, taken
    in row blocks; no normalized copy of a view and no other N x C buffer
    is built. A channel at the eps floor gets the gradient of its unit
    column divided by eps.
    """
    return _term("cc", _channel_views(*_view_pair(f1, f2), cfg))


def _channel_views(f1, f2, cfg):
    """:func:`channel_contrast` of views that :func:`_view_pair` has validated."""
    n, c = f1.shape
    if c < 2:
        raise EmptyNegativeSetError("channel loss needs C >= 2 for a negative set")

    gram = f1.T @ f2  # (C, C): gram[i, j] = c1_i . c2_j
    if cfg.normalize_channels:
        d1, d2 = _col_norms(f1), _col_norms(f2)
        gram /= d1[:, None]
        gram /= d2[None, :]
    scores = gram / cfg.tau

    den = np.abs(scores)
    bound = den.max()
    np.fill_diagonal(den, np.diagonal(scores))
    terms, r = _softmax_rows(den, np.arange(c), cfg, bound, c)
    den *= r[:, None]
    value = _reduce(terms, cfg.reduction)
    sign = np.sign(gram)  # |.| backward on the negatives only
    np.fill_diagonal(sign, 1.0)
    dgram = den * sign

    if not cfg.normalize_channels:
        return LossOutput(value, f2 @ dgram.T, f1 @ dgram)
    # through c / max(‖c‖, eps): the unit column's gradient less its
    # projection on the column, over the norm; no projection at the floor
    dots1 = np.einsum("ij,ij->i", dgram, gram) * (d1 > DEFAULT_EPS)
    dots2 = np.einsum("ij,ij->j", dgram, gram) * (d2 > DEFAULT_EPS)
    g1 = f2 @ (dgram.T / d2[:, None] / d1[None, :])
    g2 = f1 @ (dgram / d1[:, None] / d2[None, :])
    # in cache-sized row blocks: no N x C temporary, and at N = 65536,
    # C = 32 about 6 ms per view against 10-12 ms for one full-size pass
    for g, f, b in ((g1, f1, dots1 / d1**2), (g2, f2, dots2 / d2**2)):
        for rows in _gemm_row_blocks(n, c):
            g[rows] -= f[rows] * b
    return LossOutput(value, g1, g2)


def ep_contrast(
    f1: np.ndarray,
    f2: np.ndarray,
    seg: SegmentAssignment,
    cfg: LossConfig,
) -> LossOutput:
    """Combined objective: segment loss plus ``cfg.lam`` times the channel loss.

    Each view is validated once, for both terms, and each term is evaluated
    once; the output names both (:class:`LossOutput`).
    """
    f1, f2 = _view_pair(f1, f2)
    ag = _ag_views(f1, f2, seg, cfg)
    if cfg.lam == 0.0:
        return _term("ag", ag)
    cc = _channel_views(f1, f2, cfg)
    # lam * cc + ag in the channel gradients' own buffers; the sum commutes,
    # so the bytes are those of ag + lam * cc
    for g, ag_g in ((cc.grad_f1, ag.grad_f1), (cc.grad_f2, ag.grad_f2)):
        g *= cfg.lam
        g += ag_g
    return LossOutput(
        ag.value + cfg.lam * cc.value, cc.grad_f1, cc.grad_f2,
        {"ag": ag.value, "cc": cc.value},
    )


def contrast(
    kind: str,
    f1: np.ndarray,
    f2: np.ndarray,
    seg: SegmentAssignment | None,
    cfg: LossConfig,
    rng: np.random.Generator | None = None,
) -> LossOutput:
    """Evaluate the loss named by ``kind``, one of :data:`KINDS`.

    ``seg`` is read by the segmented kinds ("ag" and "ep"), ``rng`` only by
    sampled "pc". The table looks each loss function up by its
    module-level name on every call, so a wrapper installed on that name
    sees the call.
    """
    return _lookup(kind, seg).evaluate(f1, f2, seg, cfg, rng)


def channel_abs_cosine_mean(f: np.ndarray) -> float:
    """Mean |cosine| between distinct channel maps of one embedding.

    The redundancy metric the channel loss is meant to drive down.
    """
    f = as_matrix(f, "embedding")
    c = f.shape[1]
    if c < 2:
        raise ShapeError("need at least two channels to compare")
    h = _unit_rows(f.T)[0]
    gram = np.abs(h @ h.T)
    off = gram[~np.eye(c, dtype=bool)]
    return float(off.mean())


# ---------------------------------------------------------------------------
# brute-force oracles: plain loops, no vectorization, no sampling
# ---------------------------------------------------------------------------


def _bf_dot(a, b, counter):
    if counter is not None:
        counter.bump()
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _bf_row_normalize(rows):
    out = []
    for row in rows:
        norm = math.sqrt(_bf_dot(row, row, None))
        d = norm if norm > DEFAULT_EPS else DEFAULT_EPS
        out.append([v / d for v in row])
    return out


def _bf_rows(queries, keys, pos_of, cfg, counter, abs_negatives):
    """The loss of each query against every key, key ``pos_of[i]`` being
    query i's positive and each other key a negative, scored by its
    absolute similarity when ``abs_negatives`` is set."""
    if len(keys) < 2:
        raise EmptyNegativeSetError(f"{len(keys)} key(s) leave no negative set")
    total = 0.0
    for q, own in zip(queries, pos_of):
        pos = _bf_dot(q, keys[own], counter) / cfg.tau
        den = 0.0
        for j, k in enumerate(keys):
            if j == own:
                continue
            s = _bf_dot(q, k, counter)
            den += math.exp((abs(s) if abs_negatives else s) / cfg.tau)
        if cfg.include_positive_in_denominator:
            den += math.exp(pos)
        total += math.log(den) - pos
    return total / len(queries) if cfg.reduction == "mean" else total


def _bf_pc(f1, f2, seg, cfg, counter):
    if cfg.normalize_rows:
        f1, f2 = _bf_row_normalize(f1), _bf_row_normalize(f2)
    return _bf_rows(f1, f2, range(len(f1)), cfg, counter, False)


def _bf_ag(f1, f2, seg, cfg, counter):
    ids = seg.segment_of.tolist()
    members: list[list[int]] = [[] for _ in range(seg.num_segments)]
    for i, alpha in enumerate(ids):
        members[alpha].append(i)

    def one_way(fq, fk):
        pooled = []
        for rows in members:
            row = [0.0] * len(fk[0])
            for i in rows:
                for k, v in enumerate(fk[i]):
                    row[k] += v
            pooled.append([v / len(rows) for v in row])
        if cfg.normalize_rows:
            fq, pooled = _bf_row_normalize(fq), _bf_row_normalize(pooled)
        return _bf_rows(fq, pooled, ids, cfg, counter, False)

    value = one_way(f1, f2)
    return 0.5 * (value + one_way(f2, f1)) if cfg.symmetric_ag else value


def _bf_cc(f1, f2, seg, cfg, counter):
    cols1, cols2 = [list(col) for col in zip(*f1)], [list(col) for col in zip(*f2)]
    if cfg.normalize_channels:
        cols1, cols2 = _bf_row_normalize(cols1), _bf_row_normalize(cols2)
    return _bf_rows(cols1, cols2, range(len(cols1)), cfg, counter, True)


def _bf_ep(f1, f2, seg, cfg, counter):
    ag = _bf_ag(f1, f2, seg, cfg, counter)
    return ag if cfg.lam == 0.0 else ag + cfg.lam * _bf_cc(f1, f2, seg, cfg, counter)


def brute_force_loss(
    kind: str,
    f1: np.ndarray,
    f2: np.ndarray,
    seg: SegmentAssignment | None = None,
    cfg: LossConfig = LossConfig(),
    counter: EvalCounter | None = None,
) -> float:
    """Reference value for a loss, computed with explicit pair loops.

    The views and the segment assignment are checked as the evaluators
    check them. Sampling is never applied. With ``cfg.symmetric_ag`` the
    segment term of "ag" and "ep" is the mean of the two directions, each
    walked by its own loop, and "ep" walks no channel pair when ``cfg.lam``
    is 0. ``counter`` (if given) tallies one bump per similarity
    evaluation, matching :func:`count_pairs` per direction walked (so twice
    its "ag" count for a symmetric segment term). Inputs are capped at
    oracle scale (N <= 256, C <= 64, and M <= 64 for a segmented kind).
    """
    spec = _lookup(kind, seg)
    f1, f2 = _view_pair(f1, f2)
    if spec.segmented:
        _check_covers(seg, f1)
    n, c = f1.shape
    m = seg.num_segments if spec.segmented else 1
    if n > 256 or c > 64 or m > 64:
        raise RangeError(f"oracle scale is N <= 256, C <= 64, M <= 64; got N={n}, C={c}, M={m}")
    return spec.oracle(f1.tolist(), f2.tolist(), seg, cfg, counter)


@dataclass(frozen=True)
class LossKind:
    """One entry of :data:`KINDS`: ``evaluate(f1, f2, seg, cfg, rng)``, the
    ``oracle(f1, f2, seg, cfg, counter)`` on lists of rows, ``pairs(n, m, c)``
    -> (positives, negatives) or None for the combined "ep", and whether the
    kind reads a segment assignment (needs M >= 2), contrasts points (needs
    N >= 2) and, by ``channels(cfg)``, contrasts channels (needs C >= 2)."""

    evaluate: Callable[..., LossOutput]
    oracle: Callable[..., float]
    pairs: Callable[[int, int, int], tuple[int, int]] | None
    segmented: bool
    points: bool
    channels: Callable[[LossConfig], bool]


# The evaluators are lambdas so that each call looks the loss function up
# by its module-level name: a wrapper installed on that name sees it.
KINDS = {
    "pc": LossKind(lambda f1, f2, seg, cfg, rng: point_infonce(f1, f2, cfg, rng),
                   _bf_pc, lambda n, m, c: (n, n * n - n), segmented=False, points=True,
                   channels=lambda cfg: False),
    "ag": LossKind(lambda f1, f2, seg, cfg, rng: ag_contrast(f1, f2, seg, cfg),
                   _bf_ag, lambda n, m, c: (n, n * (m - 1)), segmented=True, points=True,
                   channels=lambda cfg: False),
    "cc": LossKind(lambda f1, f2, seg, cfg, rng: channel_contrast(f1, f2, cfg),
                   _bf_cc, lambda n, m, c: (c, c * c - c), segmented=False, points=False,
                   channels=lambda cfg: True),
    "ep": LossKind(lambda f1, f2, seg, cfg, rng: ep_contrast(f1, f2, seg, cfg),
                   _bf_ep, None, segmented=True, points=True, channels=lambda cfg: cfg.lam != 0.0),
}
PAIR_KINDS = tuple(name for name, spec in KINDS.items() if spec.pairs is not None)
