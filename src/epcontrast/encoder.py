"""Per-point MLP encoder with hand-derived backpropagation.

Each point is embedded independently from a 9-dimensional input feature:
centroid-centered xyz scaled to the unit bounding box, the point's rgb,
and the scene-mean rgb (the one piece of scene context). The encoder runs
any chained stack :class:`MlpParams` accepts, ReLU after every layer but
the linear last one; :func:`encoder_init` builds two hidden layers.
:func:`encoder_forward`, the training forward, caches each layer's input
(the features and every hidden layer's output) and nothing else: a ReLU
output is positive exactly where its pre-activation is, so the backward
pass masks by the outputs and stays exact. :func:`encoder_embed`, which
evaluation uses, runs the same layers on given features and caches nothing.

Checkpoints use the EPCK layout: magic ``EPCK``, uint32-LE version (=1),
uint32-LE layer count, then per layer fan_out and fan_in as uint32-LE
followed by the float64-LE weight matrix (row-major) and bias vector.
Loading rejects a checkpoint whose first layer does not take the
``INPUT_DIM`` input features.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CacheError, ConfigError, FormatError, PayloadLengthError, RangeError, ShapeError,
)
from .numcore import _col_extremes
from .pointcloud import PointCloud
from .rng import substream

_MAGIC = b"EPCK"
_VERSION = 1

INPUT_DIM = 9


@dataclass(frozen=True)
class MlpParams:
    """Weights (fan_out, fan_in) and biases per layer; also reused as the
    container for gradients and optimizer moments, which mirror its shapes."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must pair up layer by layer")
        if not self.weights:
            raise ShapeError("an MLP needs at least one layer")
        prev = None
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ShapeError(f"layer shapes inconsistent: W {w.shape}, b {b.shape}")
            if 0 in w.shape:
                raise ShapeError(f"a layer needs at least one input and one unit, W {w.shape}")
            if prev is not None and w.shape[1] != prev:
                raise ShapeError(
                    f"layer input {w.shape[1]} does not chain from previous output {prev}"
                )
            prev = w.shape[0]
        self.require_finite()

    @classmethod
    def _derived(cls, weights: tuple, biases: tuple) -> "MlpParams":
        """Container for arrays computed from validated ones (gradients,
        moments, updates): their shapes hold by construction, so
        ``__post_init__`` is skipped. Finiteness is the caller's to check."""
        params = object.__new__(cls)
        object.__setattr__(params, "weights", weights)
        object.__setattr__(params, "biases", biases)
        return params

    def require_finite(self) -> None:
        if not all(np.isfinite(a).all() for a in self.weights + self.biases):
            raise RangeError("parameters contain non-finite entries")

    def map(self, fn) -> "MlpParams":
        """New container with ``fn`` applied to every array; ``fn`` keeps
        each array's shape, and the result is not re-validated."""
        return MlpParams._derived(
            tuple(fn(w) for w in self.weights),
            tuple(fn(b) for b in self.biases),
        )

    def zip_map(self, other: "MlpParams", fn) -> "MlpParams":
        return MlpParams._derived(
            tuple(fn(a, b) for a, b in zip(self.weights, other.weights)),
            tuple(fn(a, b) for a, b in zip(self.biases, other.biases)),
        )


def encoder_init(d_in: int, hidden: int, c_out: int, seed: int) -> MlpParams:
    """Uniform He-style init: W ~ U[-sqrt(6/fan_in), +sqrt(6/fan_in)], b = 0."""
    if min(d_in, hidden, c_out) < 1:
        raise ConfigError(
            f"all layer dimensions must be >= 1, got {d_in}, {hidden}, {c_out}"
        )
    sizes = [d_in, hidden, hidden, c_out]
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / fan_in)
        rng = substream(seed, layer)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(tuple(weights), tuple(biases))


def encoder_features(cloud: PointCloud) -> np.ndarray:
    """N x 9 input features; see the module docstring."""
    pos, colors = cloud.positions, cloud.colors
    x = np.empty((cloud.n, INPUT_DIM))
    np.subtract(pos, pos.mean(axis=0), out=x[:, :3])
    lo, hi = _col_extremes(pos)
    extent = float(np.max(hi - lo))
    if extent > 0.0:
        x[:, :3] /= extent
    x[:, 3:6] = colors
    x[:, 6:] = colors.mean(axis=0)
    return x


def _layers(params: MlpParams, x: np.ndarray, cache: list | None) -> np.ndarray:
    """The (N x C) embedding of the features ``x``. Each hidden layer runs its
    GEMM into a new array and adds its bias and takes its ReLU in place; its
    output is appended to ``cache`` unless that is None."""
    if x.shape[1] != params.weights[0].shape[1]:
        raise ShapeError(
            f"encoder expects input dim {params.weights[0].shape[1]}, features have {x.shape[1]}"
        )
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        if cache is not None:
            cache.append(h)
    return h @ params.weights[-1].T + params.biases[-1]


def encoder_forward(
    params: MlpParams, cloud: PointCloud
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Embed every point; returns (N x C embedding, activation cache).

    The cache is (x, a1, ..., a_{L-1}): the input, then each hidden layer's
    output, that is each layer's input.
    """
    x = encoder_features(cloud)
    cache = [x]
    return _layers(params, x, cache), tuple(cache)


def encoder_embed(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """Embed the rows of ``features`` (from :func:`encoder_features`) with no
    activation cache: each hidden output is freed once the next layer has
    read it."""
    return _layers(params, features, None)


def encoder_backward(
    params: MlpParams, cache: tuple[np.ndarray, ...], grad_embedding: np.ndarray
) -> MlpParams:
    """Exact parameter gradients for a cached forward pass.

    A hidden layer's gradient is masked where its output a_l is not
    positive. a_l = max(z_l, 0) is positive exactly where z_l is (a zero, a
    negative zero or a NaN pre-activation gives no positive output), so the
    mask is the pre-activation's. It is applied in place.
    """
    layers = len(params.weights)
    if len(cache) != layers:
        raise CacheError(
            f"cache must hold {layers} arrays for {layers} layers, got {len(cache)}"
        )
    n = cache[0].shape[0]
    if (
        any(a.shape != (n, w.shape[1]) for a, w in zip(cache, params.weights))
        or grad_embedding.shape != (n, params.weights[-1].shape[0])
    ):
        raise CacheError("cache shapes do not match these parameters (stale cache?)")
    dz = grad_embedding
    dws, dbs = [], []
    for layer in reversed(range(layers)):
        dws.append(dz.T @ cache[layer])
        dbs.append(dz.sum(axis=0))
        if layer:
            dz = dz @ params.weights[layer]
            dz *= cache[layer] > 0.0
    return MlpParams._derived(tuple(dws[::-1]), tuple(dbs[::-1]))


def save_checkpoint(params: MlpParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(params.weights)))
        for w, b in zip(params.weights, params.biases):
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> MlpParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 12:
        raise PayloadLengthError(
            f"{path}: header truncated, expected >= 12 bytes, got {len(blob)}"
        )
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (layers,) = struct.unpack_from("<I", blob, 8)
    offset = 12
    weights, biases = [], []
    for _ in range(layers):
        if offset + 8 > len(blob):
            raise PayloadLengthError(f"{path}: truncated layer header at byte {offset}")
        fan_out, fan_in = struct.unpack_from("<II", blob, offset)
        offset += 8
        need = 8 * fan_out * fan_in + 8 * fan_out
        if offset + need > len(blob):
            raise PayloadLengthError(
                f"{path}: expected {need} payload bytes at {offset}, file has {len(blob) - offset}"
            )
        w = np.frombuffer(blob, dtype="<f8", count=fan_out * fan_in, offset=offset)
        offset += 8 * fan_out * fan_in
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    if offset != len(blob):
        raise PayloadLengthError(
            f"{path}: {len(blob) - offset} trailing bytes after the last layer"
        )
    if layers and weights[0].shape[1] != INPUT_DIM:
        raise ShapeError(
            f"{path}: first layer takes {weights[0].shape[1]} inputs, "
            f"the encoder feeds it {INPUT_DIM}"
        )
    try:
        return MlpParams(tuple(weights), tuple(biases))
    except (RangeError, ShapeError) as exc:  # name the file, as the layout errors do
        raise type(exc)(f"{path}: {exc}") from exc
