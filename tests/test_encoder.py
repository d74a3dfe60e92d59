"""Encoder forward/backward correctness and checkpoint format."""

import struct

import numpy as np
import pytest

from epcontrast import (
    LossConfig,
    MlpParams,
    PointCloud,
    encoder_backward,
    encoder_forward,
    encoder_init,
    load_checkpoint,
    point_infonce,
    save_checkpoint,
)
from epcontrast.encoder import encoder_embed, encoder_features
from epcontrast.errors import (
    CacheError, ConfigError, FormatError, PayloadLengthError, RangeError, ShapeError,
)
from epcontrast.selfcheck import central_diff, rel_err


def random_cloud(rng, n=8):
    return PointCloud(rng.normal(size=(n, 3)), rng.uniform(0, 1, (n, 3)))


def flatten(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def unflatten(vec, like):
    arrays, offset = [], 0
    for a in like.weights + like.biases:
        arrays.append(vec[offset : offset + a.size].reshape(a.shape))
        offset += a.size
    n = len(like.weights)
    return MlpParams(tuple(arrays[:n]), tuple(arrays[n:]))


def assert_gradients_match_differences(params, cloud, rng):
    """Backward against central differences of sum(embedding * upstream)."""
    upstream = rng.normal(size=(cloud.n, params.weights[-1].shape[0]))

    def scalar(vec):
        emb, _ = encoder_forward(unflatten(vec, params), cloud)
        return float(np.sum(emb * upstream))

    _, cache = encoder_forward(params, cloud)
    grads = flatten(encoder_backward(params, cache, upstream))
    assert rel_err(grads, central_diff(scalar, flatten(params))) <= 1e-5


class TestInit:
    def test_biases_zero_and_weights_bounded(self):
        params = encoder_init(9, 16, 8, seed=0)
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)
        for w in params.weights:
            bound = np.sqrt(6.0 / w.shape[1])
            assert np.all(np.abs(w) <= bound)

    def test_deterministic(self):
        a = encoder_init(9, 16, 8, seed=5)
        b = encoder_init(9, 16, 8, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_layer_sizes(self):
        params = encoder_init(9, 32, 12, seed=1)
        assert [w.shape for w in params.weights] == [(32, 9), (32, 32), (12, 32)]

    @pytest.mark.parametrize("dims", [(0, 16, 8), (9, 0, 8), (9, 16, 0)])
    def test_dimension_below_one_is_a_config_error(self, dims):
        with pytest.raises(ConfigError, match="dimensions must be >= 1"):
            encoder_init(*dims, seed=0)

    def test_direct_construction_validates_derived_containers_do_not(self):
        params = encoder_init(9, 4, 3, seed=0)
        nan = params.map(lambda a: np.full_like(a, np.nan))  # no scan on map results
        with pytest.raises(RangeError, match="non-finite"):
            nan.require_finite()
        with pytest.raises(RangeError, match="non-finite"):
            MlpParams(nan.weights, nan.biases)


class TestForward:
    def test_zero_weights_zero_embedding(self):
        rng = np.random.default_rng(0)
        params = encoder_init(9, 8, 4, seed=0).map(np.zeros_like)
        emb, _ = encoder_forward(params, random_cloud(rng))
        np.testing.assert_array_equal(emb, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, n=12)
        params = encoder_init(9, 8, 4, seed=2)
        emb, _ = encoder_forward(params, cloud)
        perm = rng.permutation(12)
        permuted = PointCloud(cloud.positions[perm], cloud.colors[perm])
        emb_p, _ = encoder_forward(params, permuted)
        np.testing.assert_allclose(emb_p, emb[perm], rtol=0, atol=1e-12)

    def test_matches_per_point_loop_oracle(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, n=6)
        params = encoder_init(9, 5, 3, seed=3)
        emb, _ = encoder_forward(params, cloud)
        feats = encoder_features(cloud)
        for i in range(cloud.n):
            h = feats[i]
            for w, b in zip(params.weights[:-1], params.biases[:-1]):
                h = np.maximum(w @ h + b, 0.0)
            h = params.weights[-1] @ h + params.biases[-1]
            np.testing.assert_allclose(emb[i], h, rtol=0, atol=1e-12)

    def test_feature_layout(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, n=5)
        feats = encoder_features(cloud)
        assert feats.shape == (5, 9)
        np.testing.assert_allclose(feats[:, :3].mean(axis=0), 0.0, atol=1e-12)
        assert np.max(feats[:, :3].max(0) - feats[:, :3].min(0)) <= 1.0 + 1e-12
        np.testing.assert_array_equal(feats[:, 3:6], cloud.colors)
        np.testing.assert_array_equal(
            feats[:, 6:], np.tile(cloud.colors.mean(axis=0), (5, 1))
        )


class TestBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng)
        params = encoder_init(9, 6, 4, seed=4)
        emb, cache = encoder_forward(params, cloud)
        grads = encoder_backward(params, cache, np.zeros_like(emb))
        for a in grads.weights + grads.biases:
            np.testing.assert_array_equal(a, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        # generic point in parameter space: fresh-init biases are exactly 0,
        # which parks dead-row pre-activations on the ReLU kink
        params = encoder_init(9, 6, 4, seed=5).map(
            lambda a: a + rng.normal(scale=0.05, size=a.shape)
        )
        assert_gradients_match_differences(params, random_cloud(rng, n=8), rng)

    def test_end_to_end_composition_with_loss(self):
        rng = np.random.default_rng(6)
        cloud1, cloud2 = random_cloud(rng, 7), random_cloud(rng, 7)
        params = encoder_init(9, 5, 4, seed=6).map(
            lambda a: a + rng.normal(scale=0.05, size=a.shape)
        )
        cfg = LossConfig(reduction="mean")

        def total(vec):
            p = unflatten(vec, params)
            e1, _ = encoder_forward(p, cloud1)
            e2, _ = encoder_forward(p, cloud2)
            return point_infonce(e1, e2, cfg).value

        e1, c1 = encoder_forward(params, cloud1)
        e2, c2 = encoder_forward(params, cloud2)
        out = point_infonce(e1, e2, cfg)
        grads = flatten(
            encoder_backward(params, c1, out.grad_f1).zip_map(
                encoder_backward(params, c2, out.grad_f2), np.add
            )
        )
        assert rel_err(grads, central_diff(total, flatten(params))) <= 1e-5

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng)
        small = encoder_init(9, 6, 4, seed=7)
        big = encoder_init(9, 12, 4, seed=7)
        _, cache = encoder_forward(small, cloud)
        with pytest.raises(CacheError):
            encoder_backward(big, cache, np.zeros((cloud.n, 4)))
        deeper = MlpParams(small.weights + (np.eye(4),), small.biases + (np.zeros(4),))
        with pytest.raises(CacheError, match="4 arrays for 4 layers, got 3"):
            encoder_backward(deeper, cache, np.zeros((cloud.n, 4)))


def pre_activation_backward(params, x, pre, grad_embedding):
    """Reference: the backward pass as written when the cache held every
    pre-activation, masking each hidden layer by ``z > 0``."""
    inputs = [x] + [np.maximum(z, 0.0) for z in pre]
    dz = grad_embedding
    dws, dbs = [], []
    for layer in reversed(range(len(params.weights))):
        dws.append(dz.T @ inputs[layer])
        dbs.append(dz.sum(axis=0))
        if layer:
            dz = (dz @ params.weights[layer]) * (pre[layer - 1] > 0.0)
    return dws[::-1] + dbs[::-1]


class TestOutputCache:
    def test_cache_holds_layer_inputs_and_embed_matches_forward(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, n=64)
        params = encoder_init(9, 16, 8, seed=11)
        emb, cache = encoder_forward(params, cloud)
        x = encoder_features(cloud)
        assert len(cache) == 3 and cache[0].tobytes() == x.tobytes()
        assert encoder_embed(params, x).tobytes() == emb.tobytes()

    def test_output_masks_equal_pre_activation_masks(self):
        """A hidden layer with zero weight rows (exact zero pre-activations),
        then pre-activations set to +0.0, -0.0 and the smallest subnormals:
        masking by the ReLU output gives the gradients of masking by z > 0,
        byte for byte, and the forward's cache is max(z, 0)."""
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, n=40)
        base = encoder_init(9, 6, 4, seed=12)
        w1, b1 = base.weights[0].copy(), base.biases[0].copy()
        w1[:2] = 0.0
        b1[:2] = (0.0, -0.0)
        params = MlpParams((w1,) + base.weights[1:], (b1,) + base.biases[1:])
        x = encoder_features(cloud)
        z1 = x @ w1.T + b1
        _, cache = encoder_forward(params, cloud)
        assert cache[1].tobytes() == np.maximum(z1, 0.0).tobytes()
        assert np.all(z1[:, :2] == 0.0)
        special = np.array([0.0, -0.0, 5e-324, -5e-324])
        z1[:, 2] = np.resize(special, len(z1))
        z2 = np.maximum(z1, 0.0) @ params.weights[1].T + params.biases[1]
        z2[::3, 0] = -0.0
        assert np.signbit(z1[1, 2]) and np.signbit(z2[0, 0])
        cache = (x, np.maximum(z1, 0.0), np.maximum(z2, 0.0))
        upstream = rng.normal(size=(cloud.n, 4))
        grads = encoder_backward(params, cache, upstream)
        ref = pre_activation_backward(params, x, (z1, z2), upstream)
        for got, want in zip(grads.weights + grads.biases, ref):
            assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        params = encoder_init(9, 16, 8, seed=8)
        path = tmp_path / "enc.epck"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        for a, b in zip(params.weights + params.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epck"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("size", [4, 8, 10])
    def test_short_header(self, tmp_path, size):
        path = tmp_path / "short.epck"
        path.write_bytes((b"EPCK" + struct.pack("<II", 1, 3))[:size])
        with pytest.raises(PayloadLengthError, match="header truncated"):
            load_checkpoint(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "nan.epck"
        save_checkpoint(encoder_init(9, 4, 3, seed=0), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 12 + 8, float("nan"))  # layer 0, W[0, 0]
        path.write_bytes(bytes(blob))
        with pytest.raises(RangeError, match=r"nan\.epck: parameters contain non-finite"):
            load_checkpoint(path)

    def test_first_layer_must_take_the_encoder_input(self, tmp_path):
        path = tmp_path / "narrow.epck"
        save_checkpoint(encoder_init(4, 8, 3, seed=0), path)
        with pytest.raises(ShapeError, match=r"narrow\.epck: first layer takes 4 inputs"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shapes", [
        [(0, 9)], [(4, 9), (0, 4)], [(0, 9), (3, 0)], [(4, 9), (0, 4), (3, 0)],
    ], ids=["only-layer", "output", "first-then-fed", "hidden"])
    def test_a_layer_with_no_units_is_rejected(self, tmp_path, shapes):
        blob = b"EPCK" + struct.pack("<II", 1, len(shapes))
        for fan_out, fan_in in shapes:  # all-zero weights and biases
            blob += struct.pack("<II", fan_out, fan_in) + bytes(8 * fan_out * (fan_in + 1))
        path = tmp_path / "empty.epck"
        path.write_bytes(blob)
        with pytest.raises(ShapeError, match=r"empty\.epck: a layer needs at least one input"):
            load_checkpoint(path)

    def test_four_layer_checkpoint_embeds_with_exact_gradients(self, tmp_path):
        rng = np.random.default_rng(9)
        sizes = (9, 7, 6, 5, 3)
        params = MlpParams(
            tuple(rng.normal(scale=0.5, size=(o, i)) for i, o in zip(sizes, sizes[1:])),
            tuple(rng.normal(scale=0.05, size=o) for o in sizes[1:]),
        )
        path = tmp_path / "deep.epck"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert [w.shape for w in loaded.weights] == [(o, i) for i, o in zip(sizes, sizes[1:])]
        cloud = random_cloud(rng, n=8)
        emb, _ = encoder_forward(loaded, cloud)
        assert emb.shape == (8, 3)
        assert_gradients_match_differences(loaded, cloud, rng)
