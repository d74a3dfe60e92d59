"""Desk-scale pre-training and evaluation.

:func:`pretrain` segments every scene once, from its un-augmented cloud,
when the loss kind reads segments ("ag" and "ep"), then shuffles the
scenes each epoch into batches of ``batch_size`` and takes one
:func:`_train_step` per batch at the scheduled learning rate.
The step draws each scene's two-view augmentation pair, encodes both
views, evaluates the configured contrastive loss and pushes its gradients
back through both encoder passes, then takes one bias-corrected
adaptive-moment step on the batch-mean gradient. Both views share their
scene's segments, which is sound because augmentation preserves point
order.

Scenes are synthetic: Gaussian blobs in a room, one label per blob, with
blob colors taken from a fixed palette so the same label means the same
base color in every scene (that is what makes a probe trained on some
scenes transfer to held-out ones).

Evaluation is a linear probe: multinomial logistic regression trained by
full-batch gradient descent on frozen per-point embeddings, scored as
point-wise accuracy on held-out scenes, with optional label-fraction
masking to emulate sparse annotation. The probe fits in mixed precision:
its standardization statistics, merged scene by scene as the training
scenes are embedded, its master weights and its held-out scoring are
float64, and its training matrix, logits, softmax and gradient GEMMs are
float32. The matrix is held as cache-sized contiguous column blocks, and
each gradient step runs its logits, softmax and gradient one block at a
time while the block is in cache; the softmax takes no column-max shift
while a bound on the logits keeps exp inside float32's range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    INPUT_DIM, MlpParams, encoder_backward, encoder_embed, encoder_features, encoder_forward,
    encoder_init,
)
from .errors import (
    ConfigError, DivergenceError, EmptyNegativeSetError, RangeError, UnlabeledSceneError,
    require_integers,
)
from .losses import KINDS, LossConfig, contrast
from .numcore import _gemm_row_blocks
from .pointcloud import AugmentParams, PointCloud, make_view_pair
from .rng import derive_seed, substream
from .superpoint import KMeansConfig, SegmentAssignment, kmeans_segments

# sub-stream tags so independent consumers of the run seed never collide
_TAG_INIT = 1
_TAG_SHUFFLE = 2
_TAG_VIEWS = 3
_TAG_NEG = 4


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 1
    base_lr: float = 0.01
    lr_schedule: str = "cosine"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentParams = field(default_factory=AugmentParams)
    loss_kind: str = "ep"
    hidden: int = 64
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        require_integers(self, epochs=1, batch_size=1, hidden=1, embed_dim=1, seed=0)
        if not 0.0 <= self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ConfigError(f"lr_schedule must be constant or cosine, got {self.lr_schedule!r}")
        if self.loss_kind not in KINDS:
            raise ConfigError(
                f"loss_kind must be one of {'/'.join(KINDS)}, got {self.loss_kind!r}"
            )


@dataclass(frozen=True)
class OptimState:
    """First/second moment accumulators mirroring the parameters, plus step."""

    m: MlpParams
    v: MlpParams
    step: int = 0


def optim_init(params: MlpParams) -> OptimState:
    zeros = params.map(np.zeros_like)
    return OptimState(zeros, zeros.map(np.copy), 0)


def adam_step(
    params: MlpParams,
    grads: MlpParams,
    state: OptimState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[MlpParams, OptimState]:
    """One bias-corrected adaptive-moment update; pure, returns new values."""
    t = state.step + 1
    m = state.m.zip_map(grads, lambda m_, g: beta1 * m_ + (1.0 - beta1) * g)
    v = state.v.zip_map(grads, lambda v_, g: beta2 * v_ + (1.0 - beta2) * g * g)
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_params = params.zip_map(
        m.zip_map(v, lambda m_, v_: (m_ / c1) / (np.sqrt(v_ / c2) + eps)),
        lambda p, update: p - lr * update,
    )
    return new_params, OptimState(m, v, t)


@dataclass(frozen=True)
class SyntheticSceneConfig:
    num_clusters: int = 8
    points_per_cluster: int = 128
    cluster_std: float = 0.35
    color_noise_std: float = 0.08
    extent: float = 10.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, num_clusters=1, points_per_cluster=1, seed=0)
        for name in ("cluster_std", "color_noise_std"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 < self.extent < math.inf:
            raise ConfigError(f"extent must be finite and positive, got {self.extent}")


def class_palette(num_classes: int) -> np.ndarray:
    """Fixed, well-separated base colors indexed by class id."""
    ids = np.arange(num_classes)
    phase = 2.0 * np.pi * ids / max(num_classes, 1)
    rgb = np.stack(
        [
            0.5 + 0.45 * np.cos(phase),
            0.5 + 0.45 * np.cos(phase - 2.0 * np.pi / 3.0),
            0.5 + 0.45 * np.cos(phase + 2.0 * np.pi / 3.0),
        ],
        axis=1,
    )
    return np.clip(rgb, 0.0, 1.0)


def generate_scene(
    cfg: SyntheticSceneConfig, rng: np.random.Generator | None = None
) -> PointCloud:
    """One labeled synthetic scene of Gaussian color-coded blobs.

    Without ``rng`` the scene is drawn from ``substream(cfg.seed, 0)``, the
    stream of the first scene that ``epcontrast gen`` writes.
    """
    if rng is None:
        rng = substream(cfg.seed, 0)
    k, ppc = cfg.num_clusters, cfg.points_per_cluster
    centers = rng.uniform(0.0, cfg.extent, size=(k, 3))
    palette = class_palette(k)
    positions = np.empty((k * ppc, 3))
    colors = np.empty((k * ppc, 3))
    labels = np.repeat(np.arange(k), ppc)
    for ci in range(k):
        lo, hi = ci * ppc, (ci + 1) * ppc
        positions[lo:hi] = centers[ci] + rng.normal(0.0, cfg.cluster_std, size=(ppc, 3))
        noise = rng.normal(0.0, cfg.color_noise_std, size=(ppc, 3))
        colors[lo:hi] = np.clip(palette[ci] + noise, 0.0, 1.0)
    return PointCloud(positions, colors, labels)


def _scheduled_lr(base_lr: float, schedule: str, step: int, total_steps: int) -> float:
    if schedule == "constant" or total_steps <= 1:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def _check_negatives(train_cfg: TrainConfig, kmeans_cfg: KMeansConfig) -> None:
    """ConfigError naming the setting with which the configured loss could
    form no negative: a segmented kind needs two segments, and a kind that
    contrasts channels (``LossKind.channels``) needs two channels."""
    spec = KINDS[train_cfg.loss_kind]
    if spec.segmented and kmeans_cfg.target_segments < 2:
        raise ConfigError(
            f"loss kind {train_cfg.loss_kind!r} needs target_segments >= 2 so every point "
            f"has a negative segment, got {kmeans_cfg.target_segments}"
        )
    if spec.channels(train_cfg.loss) and train_cfg.embed_dim < 2:
        raise ConfigError(
            f"loss kind {train_cfg.loss_kind!r} needs embed_dim >= 2 so every channel "
            f"has a negative channel, got {train_cfg.embed_dim}"
        )


def _train_step(
    params: MlpParams,
    state: OptimState,
    scenes: list[PointCloud],
    segments: list[SegmentAssignment | None],
    batch: np.ndarray,
    cfg: TrainConfig,
    step: int,
    epoch: int,
    lr: float,
) -> tuple[MlpParams, OptimState, float]:
    """One optimizer step on the scenes that ``batch`` indexes: encode each
    scene's view pair, evaluate its loss, sum both encoder backwards, then
    take one Adam step at ``lr`` on the batch-mean gradient. Returns the new
    parameters and state and the batch-mean loss. Inputs were validated on
    the way in, so a RangeError here means a non-finite value; it is raised
    as a DivergenceError naming the step, epoch, scene and lr."""
    grad_sum: MlpParams | None = None
    loss_sum = 0.0
    try:
        for sidx in batch.tolist():
            view1, view2 = make_view_pair(
                scenes[sidx], cfg.augment, derive_seed(cfg.seed, _TAG_VIEWS, epoch, sidx)
            )
            emb1, cache1 = encoder_forward(params, view1)
            emb2, cache2 = encoder_forward(params, view2)
            neg_rng = substream(cfg.seed, _TAG_NEG, epoch, sidx)
            out = contrast(cfg.loss_kind, emb1, emb2, segments[sidx], cfg.loss, neg_rng)
            if not math.isfinite(out.value):
                raise RangeError(f"loss value is {out.value}")
            g = encoder_backward(params, cache1, out.grad_f1).zip_map(
                encoder_backward(params, cache2, out.grad_f2), np.add
            )
            loss_sum += out.value
            grad_sum = g if grad_sum is None else grad_sum.zip_map(g, np.add)
        inv = 1.0 / len(batch)
        params, state = adam_step(
            params, grad_sum.map(lambda a: a * inv), state, lr,
            cfg.beta1, cfg.beta2, cfg.adam_eps,
        )
        # the one finiteness scan per step: a non-finite gradient or
        # moment always reaches the updated parameters
        params.require_finite()
    except RangeError as exc:
        raise DivergenceError(
            f"training diverged at step {step} (epoch {epoch}, scene {sidx}, "
            f"lr {lr:g}): {exc}"
        ) from exc
    return params, state, loss_sum * inv


def pretrain(
    scenes: list[PointCloud],
    train_cfg: TrainConfig,
    kmeans_cfg: KMeansConfig,
) -> tuple[MlpParams, list[tuple[int, int, float, float]]]:
    """Pre-train the encoder; returns final parameters and the loss history.

    Each epoch shuffles the scenes into batches of ``batch_size`` and takes
    one :func:`_train_step` per batch. History rows are (step, epoch, loss,
    lr), one per optimizer step, with the batch-mean loss. A kind that
    contrasts points rejects a one-point scene before k-means runs.
    """
    if not scenes:
        raise RangeError("pretraining needs at least one scene")
    _check_negatives(train_cfg, kmeans_cfg)
    spec = KINDS[train_cfg.loss_kind]
    small = [i for i, scene in enumerate(scenes) if scene.n < 2]
    if spec.points and small:
        raise EmptyNegativeSetError(
            f"loss kind {train_cfg.loss_kind!r} needs scenes of >= 2 points so every point "
            f"has a negative, but scene {small[0]} has {scenes[small[0]].n}"
        )
    segments = [kmeans_segments(s, kmeans_cfg) if spec.segmented else None for s in scenes]

    params = encoder_init(
        INPUT_DIM, train_cfg.hidden, train_cfg.embed_dim,
        derive_seed(train_cfg.seed, _TAG_INIT),
    )
    state = optim_init(params)

    total_steps = train_cfg.epochs * math.ceil(len(scenes) / train_cfg.batch_size)
    history: list[tuple[int, int, float, float]] = []
    for epoch in range(train_cfg.epochs):
        order = substream(train_cfg.seed, _TAG_SHUFFLE, epoch).permutation(len(scenes))
        for start in range(0, len(scenes), train_cfg.batch_size):
            step = len(history)
            lr = _scheduled_lr(train_cfg.base_lr, train_cfg.lr_schedule, step, total_steps)
            params, state, loss = _train_step(
                params, state, scenes, segments, order[start : start + train_cfg.batch_size],
                train_cfg, step, epoch, lr,
            )
            history.append((step, epoch, loss, lr))
    return params, history


@dataclass(frozen=True)
class ProbeConfig:
    steps: int = 200
    lr: float = 1.0
    label_fraction: float = 1.0
    holdout_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        require_integers(self, steps=1, seed=0)
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0 < self.label_fraction <= 1:
            raise ConfigError(f"label_fraction must be in (0, 1], got {self.label_fraction}")
        if not 0 < self.holdout_fraction < 1:
            raise ConfigError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )


def _probe_matrix(
    params: MlpParams, scenes: list[PointCloud], rows: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The standardized class-major training matrix (d+1, n) in float32, bias
    row last, as contiguous column blocks, and the float64 per-feature mean
    ``mu`` and divisor ``sd`` (the population std, floored at 1e-8) it was
    standardized with.

    The blocks are consecutive C-contiguous (d+1, w) arrays cut from one
    buffer of (d+1)·n floats, their widths those of
    ``numcore._gemm_row_blocks(n, d + 1)``: cache-sized, and never one
    column unless n == 1, so no logit GEMM goes to gemv.

    Each scene's ``encoder_features`` are taken from the whole scene, and
    ``encoder_embed`` runs the MLP on all of its rows, which fill the
    scene's column slice, or, if ``rows`` is given, on its kept rows only:
    ``rows`` picks the points to keep by their index in the concatenated
    scenes, and the columns follow its order. A GEMM over a few rows can
    round differently from one over the whole scene, so a kept embedding
    may differ from the whole scene's in its last bits. A scene's kept
    embeddings are merged into running float64 means and
    summed squared deviations (Chan, Golub & LeVeque's pairwise update) and
    written into the buffer, point-major, minus a fixed shift, the mean of
    the first scene with kept points. The shift keeps the
    float32 rounding relative to the spread of the embeddings rather than
    to their magnitude. Each block's points are then standardized through
    one float64 scratch block as ``(x - (mu - shift)) / sd`` and written
    back over their own bytes, class-major.
    """
    d = params.weights[-1].shape[0]
    n = sum(scene.n for scene in scenes) if rows is None else len(rows)
    buf = np.empty(n * (d + 1), np.float32)
    points = buf.reshape(n, d + 1)  # point-major until it is standardized
    mu = np.zeros(d)
    m2 = np.zeros(d)
    shift = None
    count = 0
    start = 0
    for scene in scenes:
        stop = start + scene.n
        cols = slice(start, stop) if rows is None else (rows >= start) & (rows < stop)
        features = encoder_features(scene)
        x = encoder_embed(params, features if rows is None else features[rows[cols] - start])
        start = stop
        if len(x):
            x_mu = x.mean(axis=0)
            delta = x_mu - mu
            total = count + len(x)
            mu += delta * (len(x) / total)
            m2 += ((x - x_mu) ** 2).sum(axis=0) + delta * delta * (count * len(x) / total)
            count = total
            if shift is None:
                shift = x_mu
            points[cols, :d] = x - shift
        del x, features  # free before the next scene's embedding

    sd = np.maximum(np.sqrt(m2 / n), 1e-8)
    offset = mu - shift
    spans = _gemm_row_blocks(n, d + 1)
    scratch = np.empty((max(s.stop - s.start for s in spans), d))
    blocks = []
    for s in spans:
        z = scratch[: s.stop - s.start]
        z[...] = points[s, :d]
        z -= offset
        z /= sd
        block = buf[s.start * (d + 1) : s.stop * (d + 1)].reshape(d + 1, len(z))
        block[:d] = z.T
        block[d] = 1.0
        blocks.append(block)
    return blocks, mu, sd


# The fit exponentiates its float32 logits without a column-max shift while
# B = max_c sum_i |w32_ci| * max_j |x_ij|, a bound on every |logit|, is below
# this. Then each e^l lies in [e^-64, e^64] = [1.6e-28, 6.2e27], with room
# for the GEMM's rounding: a normal float32 (the smallest is e^-87.3), so no
# softmax denominator is 0, and a sum of K < 5e10 of them stays below
# float32's largest, e^88.7.
_PROBE_NO_SHIFT_LIMIT = 64.0


def _logit_bound(w32: np.ndarray, xmax: np.ndarray) -> float:
    """B = max_c sum_i |w32_ci| * xmax_i, in float64: an upper bound on
    every logit magnitude of ``w32`` on columns whose |x_i| are at most
    ``xmax``."""
    return float((np.abs(w32) @ xmax).max())


def _probe_weights(
    blocks: list[np.ndarray], y: np.ndarray, num_classes: int, cfg: ProbeConfig
) -> np.ndarray:
    """Softmax-regression weights (K, d+1) from ``cfg.steps`` full-batch
    gradient steps on the float32 class-major training matrix, given as the
    column blocks of :func:`_probe_matrix`.

    Mixed precision: the weights are float64 master weights. Each step
    rounds them to float32 and walks the blocks while each is in cache: the
    logit GEMM into one reused (K, w) buffer, exp, the column sum into one
    reused (w,) buffer and the divide (its iterator buffer cut to 1024
    elements); then the subtraction of the block's float32 one-hot targets
    (built once; p - 0 is p, so this is the true-class subtraction), and
    the gradient GEMM ``x @ p.T``, added into a float64 (d+1, K)
    accumulator, which is scaled and subtracted from the weights in
    float64. The logits are shifted by their column maximum only when
    :func:`_logit_bound` reaches _PROBE_NO_SHIFT_LIMIT.
    DivergenceError names the step and the lr if the rounded weights are not
    finite; the fit would go on to NaN weights otherwise.
    """
    n = sum(block.shape[1] for block in blocks)
    onehot = np.zeros(num_classes * n, np.float32)
    targets = []
    xmax = np.zeros(blocks[0].shape[0])
    start = 0
    for block in blocks:
        width = block.shape[1]
        t = onehot[num_classes * start : num_classes * (start + width)]
        t = t.reshape(num_classes, width)
        t[y[start : start + width], np.arange(width)] = 1.0
        targets.append(t)
        np.maximum(xmax, np.maximum(block.max(axis=1), -block.min(axis=1)), out=xmax)
        start += width

    w = np.zeros((num_classes, len(xmax)))
    w32 = np.empty(w.shape, np.float32)
    grad = np.empty((len(xmax), num_classes))
    widest = max(block.shape[1] for block in blocks)
    logits = np.empty(num_classes * widest, np.float32)
    colsum = np.empty(widest, np.float32)
    inv_n = 1.0 / n
    bufsize = np.setbufsize(1024)  # this context's setting under numpy 2
    try:
        for step in range(cfg.steps):
            with np.errstate(over="ignore"):  # an overflow is reported just below
                w32[...] = w
            if not np.isfinite(w32).all():
                raise DivergenceError(
                    f"probe diverged at step {step} (lr {cfg.lr:g}): "
                    "its weights overflow float32"
                )
            shifted = _logit_bound(w32, xmax) >= _PROBE_NO_SHIFT_LIMIT
            grad[...] = 0.0
            for block, t in zip(blocks, targets):
                p = logits[: t.size].reshape(t.shape)
                np.matmul(w32, block, out=p)
                if shifted:
                    p -= p.max(axis=0)
                np.exp(p, out=p)
                cs = np.add.reduce(p, axis=0, out=colsum[: t.shape[1]])
                np.divide(p, cs, out=p)
                p -= t
                grad += block @ p.T
            w -= cfg.lr * grad.T * inv_n
    finally:
        np.setbufsize(bufsize)
    return w


def linear_probe(params: MlpParams, scenes: list[PointCloud], cfg: ProbeConfig) -> float:
    """Accuracy of a softmax probe on frozen embeddings over held-out scenes.

    The trailing ``holdout_fraction`` of the scene list is the evaluation
    split; the probe sees a ``label_fraction`` subsample of the training
    points, drawn from the training point count alone. The labels present
    in all the scenes are mapped to dense class ids 0..K-1, so K is the
    number of distinct labels, not the largest label plus one. Classes
    never seen by the probe (two bincounts find them) are warned about and
    their held-out points counted as errors.

    Every scene is embedded by ``encoder_embed``, with no activation cache.
    The only large buffers are the float32 class-major training matrix
    (d+1, n), which :func:`_probe_matrix` fills one scene at a time with
    the kept points only (under a label fraction, only those are run
    through the MLP) while it merges their float64 mean and variance, then
    standardizes in place into cache-sized contiguous column blocks,
    and the fit's float32 (K, n) one-hot targets. :func:`_probe_weights`
    keeps float64 master weights and runs each step block by block, its
    GEMMs and softmax in float32 in one reused (K, w) logit block, with no
    max pass while the logits are bounded; it raises DivergenceError when
    the weights overflow float32. The matrix is freed after the fit, and
    the held-out scenes are embedded, standardized and scored one at a time
    in float64.
    """
    for i, scene in enumerate(scenes):
        if scene.labels is None:
            raise UnlabeledSceneError(f"probing needs labeled scenes; scene {i} has no labels")
    n_hold = max(1, round(cfg.holdout_fraction * len(scenes)))
    if n_hold >= len(scenes):
        raise ConfigError(
            f"holdout of {n_hold} scenes leaves no training scenes (have {len(scenes)})"
        )
    train_scenes, eval_scenes = scenes[:-n_hold], scenes[-n_hold:]
    classes, dense = np.unique(
        np.concatenate([scene.labels for scene in scenes]), return_inverse=True
    )
    n_train = sum(scene.n for scene in train_scenes)
    rows = None
    if cfg.label_fraction < 1.0:
        keep = max(1, round(cfg.label_fraction * n_train))
        rows = substream(cfg.seed, 0).choice(n_train, size=keep, replace=False)
    y_train = dense[:n_train] if rows is None else dense[rows]
    y_eval = dense[n_train:].copy()
    del dense

    trained = np.bincount(y_train, minlength=len(classes)) > 0
    missing = np.flatnonzero(~trained & (np.bincount(y_eval, minlength=len(classes)) > 0))
    if missing.size:
        warnings.warn(
            f"classes {classes[missing].tolist()} absent from probe training; "
            "their held-out points are scored as errors",
            stacklevel=2,
        )

    # standardized with training statistics so one fixed lr works across encoders
    blocks, mu, sd = _probe_matrix(params, train_scenes, rows)
    w = _probe_weights(blocks, y_train, len(classes), cfg)
    del blocks

    d = len(mu)
    correct = 0
    start = 0
    for scene in eval_scenes:
        x = np.empty((scene.n, d + 1))
        np.subtract(encoder_embed(params, encoder_features(scene)), mu, out=x[:, :d])
        x[:, :d] /= sd
        x[:, d] = 1.0
        y = y_eval[start : start + scene.n]
        hit = (np.argmax(x @ w.T, axis=1) == y) & trained[y]  # a missing class never hits
        correct += int(np.count_nonzero(hit))
        start += scene.n
        del x  # free before the next scene's embedding
    return correct / len(y_eval)
