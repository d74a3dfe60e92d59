"""Scene generation, the optimizer, pretraining bookkeeping, and the probe."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from epcontrast import (
    KMeansConfig,
    MlpParams,
    PointCloud,
    ProbeConfig,
    SyntheticSceneConfig,
    TrainConfig,
    adam_step,
    encoder_init,
    generate_scene,
    linear_probe,
    pretrain,
)
from epcontrast import encoder, losses, trainer
from epcontrast.encoder import encoder_embed, encoder_features, encoder_forward
from epcontrast.errors import (
    ConfigError, DivergenceError, EmptyNegativeSetError, RangeError, UnlabeledSceneError,
)
from epcontrast.losses import LossConfig
from epcontrast.numcore import _gemm_row_blocks
from epcontrast.pointcloud import AugmentParams
from epcontrast.rng import derive_seed, substream
from epcontrast.superpoint import kmeans_segments
from epcontrast.trainer import _probe_weights, class_palette, optim_init


class TestGenerateScene:
    def test_zero_noise_makes_clusters_degenerate(self):
        cfg = SyntheticSceneConfig(num_clusters=3, points_per_cluster=5,
                                   cluster_std=0.0, color_noise_std=0.0)
        scene = generate_scene(cfg, substream(0, 0))
        for ci in range(3):
            block = scene.positions[scene.labels == ci]
            assert np.all(block == block[0])

    def test_label_histogram_exact(self):
        cfg = SyntheticSceneConfig(num_clusters=4, points_per_cluster=7)
        scene = generate_scene(cfg, substream(1, 0))
        np.testing.assert_array_equal(np.bincount(scene.labels), [7, 7, 7, 7])

    def test_deterministic(self):
        cfg = SyntheticSceneConfig()
        a = generate_scene(cfg, substream(2, 0))
        b = generate_scene(cfg, substream(2, 0))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.colors, b.colors)

    def test_omitted_generator_draws_from_the_config_seed(self):
        cfg = SyntheticSceneConfig(num_clusters=3, points_per_cluster=6, seed=7)
        a, b = generate_scene(cfg), generate_scene(cfg)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.colors, b.colors)
        np.testing.assert_array_equal(a.positions, generate_scene(cfg, substream(7, 0)).positions)
        other = generate_scene(SyntheticSceneConfig(num_clusters=3, points_per_cluster=6, seed=8))
        assert not np.array_equal(a.positions, other.positions)

    def test_palette_is_shared_across_scenes(self):
        cfg = SyntheticSceneConfig(num_clusters=5, points_per_cluster=3,
                                   color_noise_std=0.0)
        a = generate_scene(cfg, substream(3, 0))
        b = generate_scene(cfg, substream(3, 1))
        for ci in range(5):
            np.testing.assert_array_equal(
                a.colors[a.labels == ci][0], b.colors[b.labels == ci][0]
            )
        assert class_palette(5).shape == (5, 3)


class TestAdamStep:
    def test_zero_gradients_leave_params_unchanged(self):
        params = encoder_init(9, 4, 3, seed=0)
        state = optim_init(params)
        new_params, new_state = adam_step(params, params.map(np.zeros_like), state, lr=0.1)
        for a, b in zip(params.weights, new_params.weights):
            np.testing.assert_array_equal(a, b)
        assert new_state.step == 1

    def test_first_step_is_signed_lr(self):
        params = MlpParams((np.zeros((2, 2)),), (np.zeros(2),))
        grads = MlpParams((np.array([[3.0, -2.0], [0.5, -0.1]]),), (np.array([1.0, -1.0]),))
        new_params, _ = adam_step(params, grads, optim_init(params), lr=0.01)
        np.testing.assert_allclose(
            new_params.weights[0], -0.01 * np.sign(grads.weights[0]), rtol=1e-6
        )

    def test_matches_scalar_reference_over_100_steps(self):
        rng = np.random.default_rng(4)
        theta = np.array([[rng.normal()]])
        params = MlpParams((theta.copy(),), (np.zeros(1),))
        state = optim_init(params)

        # independent scalar transcription of the bias-corrected update
        p = float(theta[0, 0])
        m = v = 0.0
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 101):
            g = float(rng.normal())
            grads = MlpParams((np.array([[g]]),), (np.zeros(1),))
            params, state = adam_step(params, grads, state, lr, beta1, beta2, eps)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1**t)
            vhat = v / (1 - beta2**t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
            assert params.weights[0][0, 0] == pytest.approx(p, abs=1e-12)


def tiny_scenes(count=4, clusters=3, ppc=24, seed=0):
    cfg = SyntheticSceneConfig(num_clusters=clusters, points_per_cluster=ppc, seed=seed)
    return [generate_scene(cfg, substream(seed, i)) for i in range(count)]


def drop_class(scene, cls):
    keep = scene.labels != cls
    return PointCloud(scene.positions[keep], scene.colors[keep], scene.labels[keep])


def tiny_train_cfg(**kw):
    defaults = dict(
        epochs=1, hidden=8, embed_dim=6, seed=0,
        augment=AugmentParams(jitter_sigma=0.005, jitter_clip=0.02),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_lr", float("inf")),
            ("base_lr", float("nan")),
            ("beta1", 1.0),
            ("beta1", -0.1),
            ("beta2", 1.5),
            ("beta2", float("nan")),
            ("adam_eps", 0.0),
            ("adam_eps", float("inf")),
            ("adam_eps", float("nan")),
            ("seed", -1),
        ],
    )
    def test_rejects_out_of_domain_optimizer_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


# every field annotated int or int | None in a config dataclass
INTEGER_FIELDS = [
    (cls, f.name)
    for cls in (TrainConfig, KMeansConfig, ProbeConfig, SyntheticSceneConfig, LossConfig)
    for f in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[f.name] in (int, int | None)
]


@pytest.mark.parametrize("cls, field", INTEGER_FIELDS,
                         ids=[f"{cls.__name__}.{f}" for cls, f in INTEGER_FIELDS])
def test_integer_settings_reject_non_integers(cls, field):
    for value in (2.5, 2.0, "2"):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            cls(**{field: value})
    assert getattr(cls(**{field: np.int32(2)}), field) == 2
    low = 0 if field == "seed" else 1
    with pytest.raises(ConfigError, match=f"^{field} must be >= {low}, got {low - 1}$"):
        cls(**{field: low - 1})
    assert getattr(cls(**{field: np.int32(low)}), field) == low


class TestPretrain:
    def test_lr_zero_keeps_params_at_init(self):
        scenes = tiny_scenes()
        cfg = tiny_train_cfg(base_lr=0.0, epochs=2)
        params, history = pretrain(scenes, cfg, KMeansConfig(target_segments=4))
        init = encoder_init(9, cfg.hidden, cfg.embed_dim, derive_seed(cfg.seed, 1))
        for a, b in zip(params.weights + params.biases, init.weights + init.biases):
            np.testing.assert_array_equal(a, b)
        assert len(history) == 2 * len(scenes)

    def test_one_epoch_records_one_loss_per_scene(self):
        scenes = tiny_scenes(count=8)
        params, history = pretrain(scenes, tiny_train_cfg(), KMeansConfig(target_segments=4))
        assert len(history) == 8
        steps = [row[0] for row in history]
        assert steps == list(range(8))
        assert all(np.isfinite(row[2]) for row in history)

    def test_deterministic_under_fixed_seed(self):
        scenes = tiny_scenes()
        cfg = tiny_train_cfg(epochs=2)
        kcfg = KMeansConfig(target_segments=4)
        p1, h1 = pretrain(scenes, cfg, kcfg)
        p2, h2 = pretrain(scenes, cfg, kcfg)
        assert h1 == h2
        for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
            np.testing.assert_array_equal(a, b)

    def test_all_loss_kinds_run(self):
        scenes = tiny_scenes(count=2)
        for kind, k in (("pc", None), ("pc", 5), ("ag", None), ("cc", None), ("ep", None)):
            cfg = tiny_train_cfg(loss_kind=kind, loss=LossConfig(neg_sample_count=k))
            _, history = pretrain(scenes, cfg, KMeansConfig(target_segments=4))
            assert len(history) == 2

    def test_sampled_pc_deterministic_under_fixed_seed(self, monkeypatch):
        # each step draws its scene's point subset from the run's _TAG_NEG stream
        draws = []
        sample = losses._point_subset

        def counted(n, k, rng):
            draws.append((n, k))
            return sample(n, k, rng)

        monkeypatch.setattr(losses, "_point_subset", counted)
        scenes = tiny_scenes()
        cfg = tiny_train_cfg(epochs=2, loss_kind="pc", loss=LossConfig(neg_sample_count=5))
        kcfg = KMeansConfig(target_segments=4)
        p1, h1 = pretrain(scenes, cfg, kcfg)
        p2, h2 = pretrain(scenes, cfg, kcfg)
        assert draws == [(72, 5)] * 16
        assert h1 == h2
        for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["pc", "ag", "cc", "ep"])
    def test_only_segmented_kinds_run_kmeans(self, monkeypatch, kind):
        scenes = tiny_scenes(count=2)
        segmented = []

        def counted(scene, kcfg):
            segmented.append(scene)
            return kmeans_segments(scene, kcfg)

        monkeypatch.setattr(trainer, "kmeans_segments", counted)
        _, history = pretrain(scenes, tiny_train_cfg(loss_kind=kind),
                              KMeansConfig(target_segments=4))
        assert len(history) == 2
        want = scenes if trainer.KINDS[kind].segmented else []
        assert [id(s) for s in segmented] == [id(s) for s in want]

    @pytest.mark.parametrize("kind, batch_size", [
        pytest.param("pc", 1, id="pc"),
        pytest.param("ep", 1, id="ep"),
        pytest.param("pc", 2, id="pc-batch2"),
        pytest.param("ep", 2, id="ep-batch2"),
    ])
    def test_divergence_names_step_epoch_and_scene(self, kind, batch_size):
        scenes = tiny_scenes(count=4)
        cfg = tiny_train_cfg(epochs=2, base_lr=1e300, loss_kind=kind, batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"step \d+ \(epoch \d, scene \d,"):
                pretrain(scenes, cfg, KMeansConfig(target_segments=4))

    def test_no_scenes_is_a_range_error(self):
        with pytest.raises(RangeError, match="at least one scene"):
            pretrain([], tiny_train_cfg(), KMeansConfig(target_segments=4))

    @pytest.mark.parametrize("kind, lam, segments, dim, setting", [
        ("ag", 0.1, 1, 6, "target_segments >= 2"),
        ("ep", 0.0, 1, 6, "target_segments >= 2"),
        ("cc", 0.1, 4, 1, "embed_dim >= 2"),
        ("ep", 0.1, 4, 1, "embed_dim >= 2"),
    ])
    def test_loss_without_negatives_fails_before_kmeans(
        self, monkeypatch, kind, lam, segments, dim, setting
    ):
        def no_kmeans(*args):
            raise AssertionError("k-means ran before the settings were checked")

        monkeypatch.setattr(trainer, "kmeans_segments", no_kmeans)
        cfg = tiny_train_cfg(loss_kind=kind, loss=LossConfig(lam=lam), embed_dim=dim)
        with pytest.raises(ConfigError, match=f"loss kind '{kind}' needs {setting}"):
            pretrain(tiny_scenes(count=1), cfg, KMeansConfig(target_segments=segments))

    @pytest.mark.parametrize("kind", ["pc", "ag", "ep"])
    def test_scene_of_one_point_fails_before_kmeans_for_kinds_that_contrast_points(
        self, monkeypatch, kind
    ):
        def no_kmeans(*args):
            raise AssertionError("k-means ran before the scenes were checked")

        monkeypatch.setattr(trainer, "kmeans_segments", no_kmeans)
        scenes = tiny_scenes(count=6) + [generate_scene(SyntheticSceneConfig(1, 1))]
        with pytest.raises(
            EmptyNegativeSetError,
            match=f"^loss kind '{kind}' needs scenes of >= 2 points so every point has a "
                  "negative, but scene 6 has 1$",
        ):
            pretrain(scenes, tiny_train_cfg(loss_kind=kind), KMeansConfig(target_segments=4))

    def test_scene_of_one_point_trains_under_the_channel_loss(self):
        scenes = tiny_scenes(count=6) + [generate_scene(SyntheticSceneConfig(1, 1))]
        _, history = pretrain(scenes, tiny_train_cfg(loss_kind="cc"),
                              KMeansConfig(target_segments=4))
        assert len(history) == 7 and all(np.isfinite(row[2]) for row in history)

    def test_ep_without_channel_loss_trains_one_channel(self):
        cfg = tiny_train_cfg(loss=LossConfig(lam=0.0), embed_dim=1)
        params, history = pretrain(tiny_scenes(count=2), cfg, KMeansConfig(target_segments=4))
        assert params.weights[-1].shape[0] == 1
        assert len(history) == 2 and all(np.isfinite(row[2]) for row in history)

    def test_train_step_is_one_step_of_pretrain(self):
        """From the seeded init, one step on batch [0] of one scene is all
        that pretrain does in one epoch: the same parameter bytes and the
        history's loss."""
        scenes = tiny_scenes(count=1)
        cfg = tiny_train_cfg()
        kcfg = KMeansConfig(target_segments=4)
        params, history = pretrain(scenes, cfg, kcfg)
        init = encoder_init(9, cfg.hidden, cfg.embed_dim, derive_seed(cfg.seed, 1))
        stepped, state, loss = trainer._train_step(
            init, optim_init(init), scenes, [kmeans_segments(scenes[0], kcfg)],
            np.array([0]), cfg, 0, 0, cfg.base_lr,
        )
        assert history == [(0, 0, loss, cfg.base_lr)]
        assert state.step == 1
        for a, b in zip(params.weights + params.biases, stepped.weights + stepped.biases):
            assert a.tobytes() == b.tobytes()

    def test_cosine_schedule_decays(self):
        scenes = tiny_scenes(count=4)
        cfg = tiny_train_cfg(epochs=3, lr_schedule="cosine", base_lr=0.02)
        _, history = pretrain(scenes, cfg, KMeansConfig(target_segments=4))
        lrs = [row[3] for row in history]
        assert lrs[0] == pytest.approx(0.02)
        assert lrs[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_constant_schedule_keeps_lr_fixed(self):
        scenes = tiny_scenes(count=4)
        cfg = tiny_train_cfg(epochs=3, lr_schedule="constant", base_lr=0.02)
        _, history = pretrain(scenes, cfg, KMeansConfig(target_segments=4))
        assert [row[3] for row in history] == [0.02] * 12

    def test_batch_step_applies_mean_gradient_and_logs_mean_loss(self, monkeypatch):
        """With batch_size = B, each Adam step gets the mean of its scenes'
        gradients (each the sum of the two views' encoder backwards) and the
        history row the mean of their losses; 5 scenes make batches of 2, 2
        and 1."""
        values, backwards, adam_grads = [], [], []
        real_contrast = trainer.contrast
        real_backward = trainer.encoder_backward
        real_adam = trainer.adam_step

        def contrast(*args):
            out = real_contrast(*args)
            values.append(out.value)
            return out

        def encoder_backward(*args):
            grads = real_backward(*args)
            backwards.append(grads)
            return grads

        def adam_step(params, grads, *args):
            adam_grads.append(grads)
            return real_adam(params, grads, *args)

        def flat(p):
            return p.weights + p.biases

        monkeypatch.setattr(trainer, "contrast", contrast)
        monkeypatch.setattr(trainer, "encoder_backward", encoder_backward)
        monkeypatch.setattr(trainer, "adam_step", adam_step)
        scenes = tiny_scenes(count=5)
        cfg = tiny_train_cfg(batch_size=2)
        _, history = pretrain(scenes, cfg, KMeansConfig(target_segments=4))

        assert len(history) == len(adam_grads) == 3
        assert len(values) == 5 and len(backwards) == 10
        first = 0
        for row, grads, size in zip(history, adam_grads, (2, 2, 1)):
            assert row[2] == pytest.approx(np.mean(values[first : first + size]), rel=1e-15)
            scene_grads = [
                [a + b for a, b in zip(flat(backwards[2 * s]), flat(backwards[2 * s + 1]))]
                for s in range(first, first + size)
            ]
            for got, *parts in zip(flat(grads), *scene_grads):
                np.testing.assert_allclose(got, sum(parts) / size, rtol=1e-13, atol=1e-15)
            first += size


class TestLinearProbe:
    def test_separable_embeddings_give_perfect_accuracy(self):
        # noise-free scenes: classes are exactly the palette colors, so even
        # a random encoder's embeddings are linearly separable by class
        clean = [
            generate_scene(
                SyntheticSceneConfig(num_clusters=3, points_per_cluster=20,
                                     color_noise_std=0.0, seed=7),
                substream(7, i),
            )
            for i in range(8)
        ]
        params = encoder_init(9, 16, 8, seed=1)
        acc = linear_probe(params, clean, ProbeConfig(steps=300, lr=1.0, seed=0))
        assert acc == 1.0

    def test_constant_embeddings_score_chance(self):
        scenes = tiny_scenes(count=8, clusters=4, ppc=25)
        zero = encoder_init(9, 8, 6, seed=2).map(np.zeros_like)
        accs = [
            linear_probe(zero, scenes, ProbeConfig(steps=50, seed=s)) for s in range(5)
        ]
        assert abs(float(np.mean(accs)) - 0.25) <= 0.1

    def test_label_fraction_masks_training_points(self):
        scenes = tiny_scenes(count=8, clusters=3, ppc=30)
        params = encoder_init(9, 8, 6, seed=3)
        acc = linear_probe(params, scenes, ProbeConfig(label_fraction=0.01, seed=0))
        assert 0.0 <= acc <= 1.0

    def test_probe_never_touches_encoder_params(self):
        scenes = tiny_scenes(count=4, clusters=3, ppc=10)
        params = encoder_init(9, 8, 6, seed=4)
        before = [a.copy() for a in params.weights + params.biases]
        linear_probe(params, scenes, ProbeConfig(steps=20, seed=0))
        for a, b in zip(before, params.weights + params.biases):
            np.testing.assert_array_equal(a, b)

    def test_absent_class_warns_and_scores_errors(self):
        base = tiny_scenes(count=4, clusters=3, ppc=10)
        # train scenes missing class 2 entirely
        scenes = [drop_class(s, 2) for s in base[:3]] + [base[3]]
        params = encoder_init(9, 8, 6, seed=5)
        with pytest.warns(UserWarning, match="absent"):
            acc = linear_probe(params, scenes, ProbeConfig(steps=20, seed=0))
        assert acc <= 1.0 - np.mean(base[3].labels == 2) + 1e-9

    def test_unlabeled_scene_is_named_by_index(self):
        scenes = tiny_scenes(count=4, clusters=3, ppc=10)
        scenes[2] = PointCloud(scenes[2].positions, scenes[2].colors)
        params = encoder_init(9, 8, 6, seed=6)
        with pytest.raises(UnlabeledSceneError, match="scene 2 has no labels"):
            linear_probe(params, scenes, ProbeConfig(steps=5, seed=0))
        assert issubclass(UnlabeledSceneError, ValueError)


def row_major_probe(params, scenes, cfg):
    """Test-side replica of the probe as first written, with (n, K) logits.

    Returns the accuracy, the (d+1, K) weights, and the standardized
    training matrix (bias column last) with its labels.
    """
    n_hold = max(1, round(cfg.holdout_fraction * len(scenes)))
    splits = [scenes[:-n_hold], scenes[-n_hold:]]
    (x_train, y_train), (x_eval, y_eval) = [
        (np.vstack([encoder_forward(params, s)[0] for s in split]),
         np.concatenate([s.labels for s in split]))
        for split in splits
    ]
    num_classes = int(max(y_train.max(), y_eval.max())) + 1
    if cfg.label_fraction < 1.0:
        keep = max(1, round(cfg.label_fraction * x_train.shape[0]))
        chosen = substream(cfg.seed, 0).choice(x_train.shape[0], size=keep, replace=False)
        x_train, y_train = x_train[chosen], y_train[chosen]
    missing = np.setdiff1d(np.unique(y_eval), np.unique(y_train))
    mu = x_train.mean(axis=0)
    sd = np.maximum(x_train.std(axis=0), 1e-8)
    x_train = np.hstack([(x_train - mu) / sd, np.ones((x_train.shape[0], 1))])
    x_eval = np.hstack([(x_eval - mu) / sd, np.ones((x_eval.shape[0], 1))])

    w = np.zeros((x_train.shape[1], num_classes))
    onehot = np.zeros((x_train.shape[0], num_classes))
    onehot[np.arange(x_train.shape[0]), y_train] = 1.0
    inv_n = 1.0 / x_train.shape[0]
    for _ in range(cfg.steps):
        logits = x_train @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= cfg.lr * (x_train.T @ (p - onehot)) * inv_n

    correct = np.argmax(x_eval @ w, axis=1) == y_eval
    correct &= ~np.isin(y_eval, missing)
    return float(correct.mean()), w, x_train, y_train


# (num_classes, label_fraction, drop a class from the training scenes)
LAYOUT_CASES = [
    (2, 1.0, False), (3, 0.3, False), (4, 1.0, False), (5, 0.5, False),
    (6, 1.0, False), (7, 0.2, False), (8, 1.0, False), (9, 0.4, False),
    (4, 1.0, True), (9, 1.0, False), (2, 0.1, False),
]


# float32's unit roundoff
F32_U = 2.0**-24


def kept_embeddings(params, scenes, rows=None):
    """The float64 embeddings that _probe_matrix keeps from ``scenes``, in
    its column order, and the shift it writes them under: the mean of the
    kept points of the first scene that has any. As in _probe_matrix, the
    kept rows of each scene's features go through the MLP, in ``rows``
    order, or whole scenes when ``rows`` is None: a GEMM over fewer rows
    can round differently."""
    if rows is None:
        embs = [encoder_embed(params, encoder_features(s)) for s in scenes]
        return np.vstack(embs), embs[0].mean(axis=0)
    bounds = np.cumsum([0] + [s.n for s in scenes])
    embs = [
        encoder_embed(params, encoder_features(s)[rows[(rows >= lo) & (rows < hi)] - lo])
        for s, lo, hi in zip(scenes, bounds, bounds[1:])
    ]
    order = np.argsort(np.concatenate(
        [np.flatnonzero((rows >= lo) & (rows < hi)) for lo, hi in zip(bounds, bounds[1:])]
    ))
    shift = next(emb.mean(axis=0) for emb in embs if len(emb))
    return np.vstack(embs)[order], shift


def matrix_error_bound(x, shift, mu, sd, mu_ref, sd_ref):
    """Elementwise bound on |xt - z| for the float32 (d, n) rows of the
    matrix that _probe_matrix standardizes with ``mu`` and ``sd``, against
    z = (x - mu_ref) / sd_ref in float64, returned as (n, d).

    The matrix holds fl32((fl32(x - shift) - (mu - shift)) / sd) with the
    subtraction and division done in float64. Rounding the shifted
    embedding errs by at most u * |x - shift|, which the division turns
    into u * |x - shift| / sd; rounding the standardized value errs by at
    most u * |z|. Their product and the float64 roundings are below
    u**2 * (|x - shift| / sd + |z|), since |mu - shift| / sd is at most
    that sum. The statistics' own difference moves z by at most
    (|mu - mu_ref| + |z| * |sd - sd_ref|) / sd."""
    z = (x - mu_ref) / sd_ref
    stats = (np.abs(mu - mu_ref) + np.abs(z) * np.abs(sd - sd_ref)) / sd
    return F32_U * (1 + F32_U) * (np.abs(x - shift) / sd + np.abs(z)) + stats


@pytest.mark.parametrize("case", range(len(LAYOUT_CASES)))
def test_class_major_probe_matches_row_major_replica(case, monkeypatch):
    """The matrix that linear_probe fits is the replica's float64 matrix
    within float32 rounding (matrix_error_bound), and the accuracy is the
    replica's.

    The float64 replica's weights differ by float32 rounding. A first-order
    error model bounds that: each step rounds the master weights to float32,
    off by at most u * max|w| per weight, after the data were rounded
    twice with relative error u (matrix_error_bound); the float32 GEMMs and
    softmax err by the same order relative to the update. Gradient descent
    on this convex loss at this lr does not amplify an earlier error, so
    the errors of the ``steps`` steps add at most linearly:
    steps * u * max|w|, 3.6e-6 of the largest weight at 60 steps.
    Measured: at most 1.49 u * max|w|."""
    num_classes, fraction, drop = LAYOUT_CASES[case]
    scene_cfg = SyntheticSceneConfig(num_clusters=num_classes, points_per_cluster=15,
                                     color_noise_std=0.2)
    scenes = [generate_scene(scene_cfg, substream(case, i)) for i in range(5)]
    if drop:  # the last class is seen only in the held-out scene
        scenes[:-1] = [drop_class(s, num_classes - 1) for s in scenes[:-1]]
    params = encoder_init(9, 8, 6, seed=case)
    cfg = ProbeConfig(steps=60, lr=1.0, label_fraction=fraction, seed=case)

    fits = []

    def probe_weights(blocks, y, num_classes, cfg):
        w = _probe_weights(blocks, y, num_classes, cfg)
        fits.append((np.concatenate(blocks, axis=1), y, num_classes, w))
        return w

    stats = []
    real_probe_matrix = trainer._probe_matrix

    def probe_matrix(params, scenes, rows=None):
        blocks, mu, sd = real_probe_matrix(params, scenes, rows)
        stats.append((scenes, rows, mu, sd))
        return blocks, mu, sd

    monkeypatch.setattr(trainer, "_probe_weights", probe_weights)
    monkeypatch.setattr(trainer, "_probe_matrix", probe_matrix)
    acc_ref, w_ref, x_ref, y_ref = row_major_probe(params, scenes, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        acc = linear_probe(params, scenes, cfg)
    if drop:
        assert any("absent" in str(c.message) for c in caught)
    assert acc == acc_ref

    (xt, y, k, w), = fits
    (train, rows, mu, sd), = stats
    x, shift = kept_embeddings(params, train, rows)
    mu_ref, sd_ref = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8)
    bound = matrix_error_bound(x, shift, mu, sd, mu_ref, sd_ref)
    assert np.all(np.abs(xt[:-1].T - x_ref[:, :-1]) <= bound)
    assert np.all(xt[-1] == 1.0)
    np.testing.assert_array_equal(y, y_ref)
    assert k == w_ref.shape[1]
    assert np.abs(w - w_ref.T).max() <= cfg.steps * F32_U * np.abs(w_ref).max()


@pytest.mark.parametrize("fraction", [1.0, 0.001])
def test_desk_probe_accuracy_matches_float64_replica(fraction):
    """At 16 desk-size scenes the mixed-precision probe scores the held-out
    points exactly as the all-float64 replica does."""
    cfg = SyntheticSceneConfig(num_clusters=8, points_per_cluster=128)
    scenes = [generate_scene(cfg, substream(17, i)) for i in range(16)]
    params = encoder_init(9, 64, 32, seed=17)
    probe_cfg = ProbeConfig(label_fraction=fraction, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 12 kept points miss a class
        acc = linear_probe(params, scenes, probe_cfg)
    assert acc == row_major_probe(params, scenes, probe_cfg)[0]


def test_diverging_probe_is_a_divergence_error():
    scenes = tiny_scenes(count=4, clusters=3, ppc=10)
    params = encoder_init(9, 8, 6, seed=4)
    with pytest.raises(DivergenceError, match=r"probe diverged at step 1 \(lr 1e\+300\)"):
        linear_probe(params, scenes, ProbeConfig(steps=50, lr=1e300, seed=0))


def shifted_reference(xt, y, num_classes, cfg):
    """Float64 gradient descent with a column-max-shifted softmax on the
    float32 matrix ``xt`` (d+1, n): the fit _probe_weights rounds."""
    x = xt.astype(np.float64)
    n = x.shape[1]
    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    w = np.zeros((num_classes, x.shape[0]))
    for _ in range(cfg.steps):
        z = w @ x
        z -= z.max(axis=0)
        p = np.exp(z)
        p /= p.sum(axis=0)
        w -= cfg.lr * ((p - onehot) @ x.T) / n
    return w


@pytest.mark.parametrize(
    "scale, lr, shifts",
    [(1.0, 1.0, False), (10.0, 1.0, True), (1.0, 100.0, True)],
    ids=["unit", "scaled-features", "large-lr"],
)
def test_probe_shifts_its_logits_only_past_the_bound(scale, lr, shifts, monkeypatch):
    """The fit takes the column-max shift exactly on the steps whose bound B
    reaches _PROBE_NO_SHIFT_LIMIT, which unit-scale features at lr 1 never
    do and features scaled by 10, or an lr of 100, do after the first step.
    Either way the weights stay finite and match the float64 max-shifted
    fit within the steps * u * max|w| bound of the layout test. Without
    the shift the two large cases overflow exp and diverge at step 2."""
    scene_cfg = SyntheticSceneConfig(num_clusters=6, points_per_cluster=700,
                                     color_noise_std=0.1)
    scenes = [generate_scene(scene_cfg, substream(31, i)) for i in range(2)]
    params = encoder_init(9, 16, 8, seed=31)
    xt = np.concatenate(trainer._probe_matrix(params, scenes)[0], axis=1)
    xt[:-1] *= np.float32(scale)
    y = np.concatenate([s.labels for s in scenes])
    cfg = ProbeConfig(steps=20, lr=lr)
    bounds = []
    real_bound = trainer._logit_bound

    def logit_bound(w32, xmax):
        bounds.append(real_bound(w32, xmax))
        return bounds[-1]

    monkeypatch.setattr(trainer, "_logit_bound", logit_bound)
    # cut as _probe_matrix cuts its matrix
    blocks = [np.ascontiguousarray(xt[:, s]) for s in _gemm_row_blocks(len(y), len(xt))]
    assert len(blocks) == 2
    w = _probe_weights(blocks, y, 6, cfg)
    assert len(bounds) == cfg.steps
    assert bounds[0] == 0.0
    shifted = [b >= trainer._PROBE_NO_SHIFT_LIMIT for b in bounds]
    assert shifted == [False] + [shifts] * (cfg.steps - 1)
    assert np.isfinite(w).all()
    w_ref = shifted_reference(xt, y, 6, cfg)
    assert np.abs(w - w_ref).max() <= cfg.steps * F32_U * np.abs(w_ref).max()


@pytest.mark.parametrize(
    "sizes, keep", [((1024,), 1), ((3971,), None), ((1024,) * 32, 33)],
    ids=["one-column", "two-blocks-and-one", "probe-0.1pct"],
)
def test_probe_blocks_tile_the_columns_in_order(sizes, keep):
    """_probe_matrix's blocks are consecutive C-contiguous (d+1, w) pieces
    of one buffer with the widths of _gemm_row_blocks(n, d+1), so no block
    has one column unless n == 1, and side by side they are the
    standardized matrix in column order. 3971 = 2 * 1985 + 1 columns fold
    the one-column tail into the second block; 33 of 32768 points is the
    0.1% desk probe's (33, keep) matrix."""
    scenes = [
        generate_scene(SyntheticSceneConfig(num_clusters=1, points_per_cluster=size),
                       substream(41, i))
        for i, size in enumerate(sizes)
    ]
    params = encoder_init(9, 16, 32, seed=41)
    rows = None
    if keep is not None:
        rows = substream(0, 0).choice(sum(sizes), size=keep, replace=False)
    blocks, mu, sd = trainer._probe_matrix(params, scenes, rows)
    n = sum(sizes) if keep is None else keep
    widths = [s.stop - s.start for s in _gemm_row_blocks(n, 33)]
    assert [b.shape for b in blocks] == [(33, w) for w in widths]
    assert all(w >= 2 for w in widths) or n == 1
    if n == 3971:
        assert widths == [1985, 1986]
    base = blocks[0].base
    address = blocks[0].ctypes.data
    for block in blocks:
        assert block.flags.c_contiguous and block.dtype == np.float32
        assert block.base is base and block.ctypes.data == address
        address += block.nbytes
    assert base.nbytes == 33 * n * 4
    x, shift = kept_embeddings(params, scenes, rows)
    z = (x - mu) / sd
    bound = matrix_error_bound(x, shift, mu, sd, mu, sd)
    xt = np.concatenate(blocks, axis=1)
    assert np.all(np.abs(xt[:-1].T - z) <= bound)
    assert np.all(xt[-1] == 1.0)


# scenes of uneven size, two of them a single point
STREAM_SIZES = (1, 40, 7, 300, 1, 96, 23)


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("keep", [None, 12, 1])
def test_streamed_statistics_match_numpy(keep, offset):
    """The per-scene merged mean and std equal numpy's float64 mean and std
    of the stacked kept embeddings within 64 eps * mean|x| per feature, and
    the matrix stays within matrix_error_bound of the float64
    standardization, also when every embedding is offset by 1e4 through
    the last-layer bias. A float64 sum errs by a few roundings of
    mean|x|: about log2(n) for numpy's pairwise sum, and one per merged
    scene for the stream; 64 covers both here, where the largest error
    measured is 7.3 eps * mean|x|.

    Rows are drawn as a label fraction draws them: 12 of the 468 points
    miss the first scene and three others, and one point leaves every
    deviation 0, so sd falls back to 1e-8."""
    scenes = []
    for i, size in enumerate(STREAM_SIZES):
        k = 4 if size % 4 == 0 else 1
        cfg = SyntheticSceneConfig(num_clusters=k, points_per_cluster=size // k)
        scenes.append(generate_scene(cfg, substream(23, i)))
    base = encoder_init(9, 16, 8, seed=23)
    params = MlpParams(base.weights, base.biases[:-1] + (base.biases[-1] + offset,))
    rows = None
    if keep is not None:
        rows = substream(0, 0).choice(sum(STREAM_SIZES), size=keep, replace=False)
    if keep == 12:
        bounds = np.cumsum((0,) + STREAM_SIZES)
        hit = [((rows >= lo) & (rows < hi)).any() for lo, hi in zip(bounds, bounds[1:])]
        assert hit == [False, True, False, True, False, True, False]

    blocks, mu, sd = trainer._probe_matrix(params, scenes, rows)
    xt = np.concatenate(blocks, axis=1)
    x, shift = kept_embeddings(params, scenes, rows)
    mu_ref, sd_ref = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-8)
    tol = 64 * np.finfo(np.float64).eps * np.abs(x).mean(axis=0)
    assert np.all(np.abs(mu - mu_ref) <= tol)
    assert np.all(np.abs(sd - sd_ref) <= tol)
    if keep == 1:
        assert np.all(sd == 1e-8)
    bound = matrix_error_bound(x, shift, mu, sd, mu_ref, sd_ref)
    assert np.all(np.abs(xt[:-1].T - (x - mu_ref) / sd_ref) <= bound)
    assert np.all(xt[-1] == 1.0)


def relabel(scene, ids):
    return PointCloud(scene.positions, scene.colors, np.asarray(ids)[scene.labels])


class TestProbeData:
    def test_sparse_label_ids_probe_like_dense_ones(self):
        scenes = tiny_scenes(count=4, clusters=3, ppc=10)
        sparse = [relabel(s, [0, 7, 4_000_000_000]) for s in scenes]
        params = encoder_init(9, 8, 6, seed=9)
        for fraction in (1.0, 0.3):
            cfg = ProbeConfig(steps=30, label_fraction=fraction, seed=0)
            assert linear_probe(params, sparse, cfg) == linear_probe(params, scenes, cfg)

    def test_absent_class_is_named_by_its_label(self):
        base = [relabel(s, [0, 7, 4_000_000_000]) for s in tiny_scenes(count=4, ppc=10)]
        scenes = [drop_class(s, 4_000_000_000) for s in base[:3]] + [base[3]]
        params = encoder_init(9, 8, 6, seed=5)
        with pytest.warns(UserWarning, match=r"classes \[4000000000\] absent"):
            linear_probe(params, scenes, ProbeConfig(steps=5, seed=0))

    @pytest.mark.parametrize("fraction", [1.0, 0.05])
    def test_each_scene_is_embedded_once(self, monkeypatch, fraction):
        """Each scene's features are taken once, whether by encoder_forward
        or by the probe itself under a label fraction."""
        seen = []
        real_features = encoder.encoder_features

        def encoder_features(scene):
            seen.append(id(scene))
            return real_features(scene)

        monkeypatch.setattr(encoder, "encoder_features", encoder_features)
        monkeypatch.setattr(trainer, "encoder_features", encoder_features)
        scenes = tiny_scenes(count=6, clusters=3, ppc=10)
        params = encoder_init(9, 8, 6, seed=3)
        linear_probe(params, scenes, ProbeConfig(steps=5, label_fraction=fraction, seed=0))
        assert sorted(seen) == sorted(id(s) for s in scenes)

    @pytest.mark.parametrize("fraction", [1.0, 0.05])
    def test_label_fraction_embeds_only_the_kept_points(self, monkeypatch, fraction):
        """The probe never calls encoder_forward: encoder_embed sees exactly
        the kept rows of each training scene's features, in draw order (all
        of them at 1.0), and each held-out scene's features whole."""
        forwarded, embedded = [], []
        real_embed = trainer.encoder_embed

        def encoder_forward(params, scene):
            forwarded.append(id(scene))

        def encoder_embed(params, features):
            embedded.append(features.copy())
            return real_embed(params, features)

        monkeypatch.setattr(trainer, "encoder_forward", encoder_forward)
        monkeypatch.setattr(trainer, "encoder_embed", encoder_embed)
        scenes = tiny_scenes(count=8, clusters=3, ppc=40)
        params = encoder_init(9, 8, 6, seed=3)
        cfg = ProbeConfig(steps=5, label_fraction=fraction, holdout_fraction=0.25, seed=0)
        linear_probe(params, scenes, cfg)
        assert forwarded == []
        n_train = 6 * 120
        rows = np.arange(n_train)
        if fraction < 1.0:
            rows = substream(0, 0).choice(n_train, size=round(fraction * n_train), replace=False)
        bounds = np.arange(0, n_train + 1, 120)
        expected = [
            encoder_features(s)[rows[(rows >= lo) & (rows < hi)] - lo]
            for s, lo, hi in zip(scenes[:6], bounds, bounds[1:])
        ] + [encoder_features(s) for s in scenes[6:]]
        assert len(embedded) == len(expected)
        for got, want in zip(embedded, expected):
            np.testing.assert_array_equal(got, want)

    def test_probe_leaves_numpy_ma_unloaded(self):
        """A probe that warns about a class absent from training, at both
        label fractions, imports no numpy.ma in a fresh interpreter: plain
        np.unique and np.setdiff1d import it, at about 1 MB of RSS."""
        script = textwrap.dedent("""
            import sys, warnings
            from epcontrast import PointCloud, ProbeConfig, SyntheticSceneConfig
            from epcontrast import encoder_init, generate_scene, linear_probe
            from epcontrast.rng import substream
            cfg = SyntheticSceneConfig(num_clusters=3, points_per_cluster=10)
            scenes = [generate_scene(cfg, substream(0, i)) for i in range(4)]
            scenes[:3] = [PointCloud(s.positions[s.labels != 2], s.colors[s.labels != 2],
                                     s.labels[s.labels != 2]) for s in scenes[:3]]
            params = encoder_init(9, 8, 6, seed=5)
            for fraction in (1.0, 0.3):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    linear_probe(params, scenes, ProbeConfig(steps=5, label_fraction=fraction))
                assert any("absent" in str(c.message) for c in caught)
            print("numpy.ma" in sys.modules)
        """)
        src = str(Path(encoder.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_holdout_leaving_no_training_scenes_is_a_config_error(self):
        scenes = tiny_scenes(count=2, clusters=3, ppc=10)
        params = encoder_init(9, 8, 6, seed=0)
        with pytest.raises(ConfigError, match="leaves no training scenes"):
            linear_probe(params, scenes, ProbeConfig(holdout_fraction=0.9))


class TestProbeMemory:
    """The probe's only large buffers are the float32 (d+1, n) training
    matrix and the fit's float32 (K, n) one-hot targets, next to one
    scene's forward pass. With few labels kept, the matrix is (d+1, keep)
    and the peak is one forward pass and the held-out labels, plus that
    small matrix and 8 KiB of index arrays, statistics and array headers.
    Peaks are tracemalloc's, beyond the inputs, at 16 scenes of 1024
    points, 12 of them for training."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def setup_method(self):
        cfg = SyntheticSceneConfig(num_clusters=8, points_per_cluster=128)
        self.scenes = [generate_scene(cfg, substream(17, i)) for i in range(16)]
        self.params = encoder_init(9, 64, 32, seed=17)
        self.forward = self.peak_bytes(lambda: encoder_forward(self.params, self.scenes[0]))
        # one call first, so one-time allocations stay out of the measured
        # peaks; the probe imports no numpy.ma (test_probe_leaves_numpy_ma_unloaded)
        linear_probe(self.params, self.scenes[:2], ProbeConfig(steps=1, holdout_fraction=0.5))

    def test_full_labels_peak_is_matrix_logits_and_one_forward(self):
        cfg = ProbeConfig(steps=5, seed=0)
        n = 12 * 1024
        bound = 33 * n * 4 + 8 * n * 4 + self.forward
        assert self.peak_bytes(lambda: linear_probe(self.params, self.scenes, cfg)) <= bound

    def test_fit_peak_is_the_one_hot_and_one_logit_block(self):
        # beside them: one reused block of column sums and 16 KiB of
        # weights, gradient, bounds, small temporaries and array headers
        # (13.4 KB measured). No block allocates a block's worth: a
        # broadcast divide takes an iterator buffer of getbufsize() float32s
        # (32 KiB at numpy's default), so the fit runs it under 1024.
        blocks, _, _ = trainer._probe_matrix(self.params, self.scenes[:12])
        y = np.concatenate([s.labels for s in self.scenes[:12]])
        n = 12 * 1024
        w = max(block.shape[1] for block in blocks)
        assert len(blocks) > 1 and np.getbufsize() * 4 > (16 << 10)
        bound = 8 * n * 4 + 8 * w * 4 + w * 4 + (16 << 10)
        cfg = ProbeConfig(steps=5, seed=0)
        assert self.peak_bytes(lambda: _probe_weights(blocks, y, 8, cfg)) <= bound

    def test_few_labels_peak_is_one_forward_and_the_held_out_labels(self):
        cfg = ProbeConfig(steps=5, label_fraction=0.001, seed=0)
        keep = round(0.001 * 12 * 1024)
        bound = self.forward + 4 * 1024 * 8 + 33 * keep * 4 + (8 << 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 12 kept points miss a class
            peak = self.peak_bytes(lambda: linear_probe(self.params, self.scenes, cfg))
        assert peak <= bound
