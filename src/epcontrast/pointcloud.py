"""Point-cloud data model, file formats, and the two-view augmentation pipeline.

A scene is N points with xyz positions in meters and rgb colors in [0, 1],
optionally carrying one non-negative integer label per point. Two file
formats are supported:

* ASCII: one point per line, ``x y z r g b`` or ``x y z r g b label``,
  whitespace separated, ``#`` starts a comment line.
* EPCC binary: magic ``EPCC``, uint32-LE version (=1), uint64-LE point
  count, one has-labels byte, N*6 float32-LE values row-major
  (x y z r g b), then N uint32-LE labels if the flag byte is 1.

Augmentation applies uniform scaling, rotation about one axis through the
scene centroid, and clipped per-coordinate Gaussian jitter, in that order.
Point order is preserved, so index i in one augmented view corresponds to
index i in the other; the contrastive losses rely on exactly this.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    ParseError,
    PayloadLengthError,
    RangeError,
    ShapeError,
)
from .rng import substream

_MAGIC = b"EPCC"
_VERSION = 1


@dataclass(frozen=True)
class PointCloud:
    """N points: positions (N,3) in meters, colors (N,3) in [0,1], optional labels."""

    positions: np.ndarray
    colors: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        col = np.ascontiguousarray(self.colors, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ShapeError(f"positions must be (N, 3), got {pos.shape}")
        if col.shape != pos.shape:
            raise ShapeError(
                f"colors shape {col.shape} does not match positions {pos.shape}"
            )
        if pos.shape[0] < 1:
            raise ShapeError("a point cloud needs at least one point")
        if not np.all(np.isfinite(pos)):
            raise RangeError("positions contain non-finite entries")
        if not np.all((col >= 0.0) & (col <= 1.0)):  # NaN fails both comparisons
            raise RangeError("color components must lie in [0, 1]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.dtype.kind not in "iu":
                raise RangeError(f"labels must be integers, got dtype {lab.dtype}")
            lab = np.ascontiguousarray(lab, dtype=np.int64)
            if lab.shape != (pos.shape[0],):
                raise ShapeError(
                    f"labels must have shape ({pos.shape[0]},), got {lab.shape}"
                )
            if np.any(lab < 0):
                raise RangeError("labels must be non-negative")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class AugmentParams:
    """Strengths of the scale / rotate / jitter pipeline.

    ``rot_max`` bounds the rotation angle (radians, drawn from U[0, rot_max));
    set it to 0 to pin the rotation, e.g. for exact-identity tests.
    """

    scale_min: float = 0.8
    scale_max: float = 1.2
    rot_axis: str = "z"
    rot_max: float = 2.0 * np.pi
    jitter_sigma: float = 0.01
    jitter_clip: float = 0.05

    def __post_init__(self):
        if not 0 < self.scale_min <= self.scale_max < math.inf:
            raise ConfigError(
                f"need 0 < scale_min <= scale_max < inf, got [{self.scale_min}, {self.scale_max}]"
            )
        if self.rot_axis not in ("x", "y", "z"):
            raise ConfigError(f"rot_axis must be one of x/y/z, got {self.rot_axis!r}")
        if not 0.0 <= self.rot_max <= 2.0 * np.pi:
            raise ConfigError(f"rot_max must lie in [0, 2*pi], got {self.rot_max}")
        if not 0 <= self.jitter_sigma <= self.jitter_clip < math.inf:
            raise ConfigError(
                f"need 0 <= jitter_sigma <= jitter_clip < inf, "
                f"got sigma={self.jitter_sigma}, clip={self.jitter_clip}"
            )


def load_ascii(path) -> PointCloud:
    """Parse an ASCII scene file; see the module docstring for the line format.

    A plain file is parsed in bulk; one with comments, non-ASCII bytes or
    anything the bulk parser rejects goes line by line, which names the
    offending line in its errors.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _bulk_ascii(data)
    if parsed is None:
        parsed = _ascii_lines(path, data)
    return _loaded_cloud(path, *parsed)


def _text_lines(data: bytes) -> io.TextIOWrapper:
    """``data`` read as a text-mode ``open()`` reads a file: lines end at
    ``\n``, ``\r\n`` or ``\r``, and undecodable bytes become lone
    surrogates, so the line parser can name the line that holds them."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


_BULK_DTYPES = {
    6: np.dtype([("v", "f8", (6,))]),
    7: np.dtype([("v", "f8", (6,)), ("l", "i8")]),
}


def _bulk_ascii(data: bytes):
    """(positions, colors, labels or None) from one ``np.loadtxt`` pass, or
    None to leave the file to :func:`_ascii_lines`.

    It declines files that are not ASCII or contain ``#``, any file
    loadtxt rejects or warns about (no data, a changed field count, a
    field that is not a float64 or int64), and files with a non-finite
    position, a colour outside [0, 1] or a negative label; what it returns
    is what the line parser returns for the same bytes.
    """
    if not data.isascii() or b"#" in data:
        return None
    first = next((line for line in _text_lines(data) if line.strip()), "")
    dtype = _BULK_DTYPES.get(len(first.split()))
    if dtype is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(_text_lines(data), dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    positions, colors = rows["v"][:, :3], rows["v"][:, 3:]
    labels = rows["l"] if "l" in dtype.names else None
    if not np.isfinite(positions).all() or not ((colors >= 0.0) & (colors <= 1.0)).all():
        return None
    if labels is not None and labels.min() < 0:
        return None
    return positions, colors, labels


def _ascii_lines(path, data: bytes):
    """(positions, colors, labels or None) parsed line by line; every error
    names ``path`` and the line."""
    positions, colors, labels = [], [], []
    has_labels = None
    for lineno, raw in enumerate(_text_lines(data), start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8 text") from exc
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (6, 7):
            raise ParseError(
                f"{path}:{lineno}: expected 6 or 7 fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields[:6]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        labeled = len(fields) == 7
        if has_labels is None:
            has_labels = labeled
        elif has_labels != labeled:
            raise FormatError(
                f"{path}:{lineno}: mixed labeled and unlabeled lines"
            )
        if labeled:
            try:
                label = int(fields[6])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad label {fields[6]!r}") from exc
            if label < 0:
                raise RangeError(f"{path}:{lineno}: labels must be non-negative, got {label}")
            if label >= 1 << 63:
                raise RangeError(f"{path}:{lineno}: label {fields[6]} does not fit in int64")
            labels.append(label)
        x, y, z, r, g, b = values
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise RangeError(f"{path}:{lineno}: non-finite position {values[:3]}")
        if not (0.0 <= r <= 1.0 and 0.0 <= g <= 1.0 and 0.0 <= b <= 1.0):
            raise RangeError(f"{path}:{lineno}: color {values[3:]} outside [0, 1]")
        positions.append(values[:3])
        colors.append(values[3:])
    if not positions:
        raise ParseError(f"{path}: no points found")
    return np.array(positions), np.array(colors), np.array(labels) if has_labels else None


def _loaded_cloud(path, positions, colors, labels) -> PointCloud:
    """Build a cloud read from ``path``; a value the cloud rejects names the file."""
    try:
        return PointCloud(positions, colors, labels)
    except (RangeError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_ascii(cloud: PointCloud, path) -> None:
    """Write a cloud in the ASCII format, each float as its shortest exact repr."""
    # one row at a time to a list: the whole cloud's tolist() held 2.5 MB at N = 8192
    rows = np.hstack([cloud.positions, cloud.colors])
    with open(path, "w", encoding="utf-8") as fh:
        if cloud.labels is None:
            fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in rows)
        else:
            fh.writelines(" ".join(map(repr, row.tolist())) + f" {label}\n"
                          for row, label in zip(rows, cloud.labels.tolist()))


def save_binary(cloud: PointCloud, path) -> None:
    """Write a cloud in the EPCC binary layout (float32 payload)."""
    has_labels = cloud.labels is not None
    if has_labels and cloud.labels.max() >= 1 << 32:
        raise RangeError(f"{path}: label {cloud.labels.max()} does not fit EPCC's uint32 labels")
    payload = np.empty((cloud.n, 6), dtype="<f4")
    with np.errstate(over="ignore"):  # reported just below
        payload[:, :3] = cloud.positions
    if not np.isfinite(payload[:, :3]).all():
        value = cloud.positions[~np.isfinite(payload[:, :3])][0]
        raise RangeError(f"{path}: position {value:g} does not fit EPCC's float32 payload")
    payload[:, 3:] = cloud.colors
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", cloud.n))
        fh.write(struct.pack("<B", 1 if has_labels else 0))
        fh.write(payload.tobytes())
        if has_labels:
            fh.write(cloud.labels.astype("<u4").tobytes())


def load_binary(path) -> PointCloud:
    """Read an EPCC binary scene file, checking magic, version, and length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    if len(blob) < 17:
        raise PayloadLengthError(
            f"{path}: header truncated, expected >= 17 bytes, got {len(blob)}"
        )
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (n,) = struct.unpack_from("<Q", blob, 8)
    (has_labels,) = struct.unpack_from("<B", blob, 16)
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: has_labels byte must be 0 or 1, got {has_labels}")
    expected = 17 + n * 24 + (n * 4 if has_labels else 0)
    if len(blob) != expected:
        raise PayloadLengthError(
            f"{path}: expected {expected} bytes for N={n}, got {len(blob)}"
        )
    payload = np.frombuffer(blob, dtype="<f4", count=n * 6, offset=17)
    payload = payload.reshape(n, 6).astype(np.float64)
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=17 + n * 24)
        labels = labels.astype(np.int64)
    return _loaded_cloud(path, payload[:, :3], payload[:, 3:], labels)


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _rotation_matrix(axis: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    k = _AXIS_INDEX[axis]
    i, j = (k + 1) % 3, (k + 2) % 3
    rot = np.eye(3)
    rot[i, i] = c
    rot[i, j] = -s
    rot[j, i] = s
    rot[j, j] = c
    return rot


def augment(cloud: PointCloud, params: AugmentParams, rng: np.random.Generator) -> PointCloud:
    """Scale, rotate about the centroid, then jitter; colors/labels untouched.

    Draw order is fixed (scale, angle, jitter block) so identical streams
    give identical clouds. Degenerate strengths (scale exactly 1, angle 0,
    sigma 0) skip their step entirely, keeping zero-strength augmentation
    bit-identical to the input.
    """
    scale = rng.uniform(params.scale_min, params.scale_max)
    theta = rng.uniform(0.0, params.rot_max)
    pos = cloud.positions if scale == 1.0 else cloud.positions * scale
    if theta != 0.0:
        centroid = pos.mean(axis=0)
        pos = (pos - centroid) @ _rotation_matrix(params.rot_axis, theta).T + centroid
    if params.jitter_sigma > 0:
        jitter = rng.normal(0.0, params.jitter_sigma, size=pos.shape)
        np.clip(jitter, -params.jitter_clip, params.jitter_clip, out=jitter)
        pos = pos + jitter
    return PointCloud(pos.copy(), cloud.colors.copy(),
                      None if cloud.labels is None else cloud.labels.copy())


def make_view_pair(
    cloud: PointCloud, params: AugmentParams, seed: int
) -> tuple[PointCloud, PointCloud]:
    """Two independent augmentations from sub-streams (seed, 1) and (seed, 2)."""
    return tuple(augment(cloud, params, substream(seed, view)) for view in (1, 2))

