"""Corrupted scene files and EPCK checkpoints fail with the package's errors.

Random truncations, bit flips and header-field edits of valid files may
only raise exception classes from ``epcontrast.errors``. A corrupted binary
file (EPCC, EPCK) that still loads must re-save to exactly its own bytes;
a corrupted ASCII scene that still loads must re-save to a file that loads
back to equal arrays (its text need not match: "1.50" re-saves as "1.5").
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epcontrast import (
    PointCloud,
    encoder_init,
    load_ascii,
    load_binary,
    load_checkpoint,
    save_ascii,
    save_binary,
    save_checkpoint,
)
from epcontrast import errors
from epcontrast.pointcloud import _ascii_lines, _bulk_ascii

PACKAGE_ERRORS = tuple(
    obj
    for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
)

FUZZ = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def corruptions(blob: bytes, fields: list[tuple[int, str]]):
    """One to three truncations, bit flips or header-field overwrites of ``blob``.

    ``fields`` lists (offset, struct format) of the header's integer fields
    (none for a text format); an overwrite writes either a small value or
    any value the field holds.
    """
    ops = ["truncate", "flip"] + (["field"] if fields else [])

    @st.composite
    def corrupt(draw):
        data = bytearray(blob)
        for _ in range(draw(st.integers(1, 3))):
            op = draw(st.sampled_from(ops))
            if op == "truncate":
                del data[draw(st.integers(0, len(data))) :]
            elif op == "flip" and data:
                bit = draw(st.integers(0, 8 * len(data) - 1))
                data[bit // 8] ^= 1 << (bit % 8)
            elif op == "field":
                offset, fmt = draw(st.sampled_from(fields))
                size = struct.calcsize(fmt)
                if offset + size <= len(data):
                    value = draw(st.integers(0, 8) | st.integers(0, 2 ** (8 * size) - 1))
                    struct.pack_into(fmt, data, offset, value)
        return bytes(data)

    return corrupt()


def check_load(load, save, blob, path):
    path.write_bytes(blob)
    try:
        loaded = load(path)
    except PACKAGE_ERRORS:
        return
    resaved = path.with_suffix(".resaved")
    save(loaded, resaved)
    assert resaved.read_bytes() == blob


def saved_bytes(save, obj, path) -> bytes:
    save(obj, path)
    return path.read_bytes()


EPCC_FIELDS = [(4, "<I"), (8, "<Q"), (16, "<B")]


def small_cloud(labeled: bool) -> PointCloud:
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=3) if labeled else None
    return PointCloud(rng.uniform(-2, 2, (3, 3)), rng.uniform(0, 1, (3, 3)), labels)


@pytest.mark.parametrize("labeled", [False, True])
@FUZZ
@given(data=st.data())
def test_ascii_corruption(tmp_path, labeled, data):
    blob = saved_bytes(save_ascii, small_cloud(labeled), tmp_path / "clean.txt")
    path = tmp_path / "scene.txt"
    path.write_bytes(data.draw(corruptions(blob, [])))
    try:
        loaded = load_ascii(path)
    except PACKAGE_ERRORS:
        return
    resaved = path.with_suffix(".resaved")
    save_ascii(loaded, resaved)
    back = load_ascii(resaved)
    np.testing.assert_array_equal(back.positions, loaded.positions)
    np.testing.assert_array_equal(back.colors, loaded.colors)
    np.testing.assert_array_equal(back.labels, loaded.labels)


def bulk_agrees_with_lines(data: bytes) -> bool:
    """Whether the bulk ASCII parser took ``data``; when it did, the line
    parser must return the same arrays, bit for bit."""
    bulk = _bulk_ascii(data)
    if bulk is None:
        return False
    for ours, theirs in zip(bulk, _ascii_lines("scene.txt", data)):
        if ours is None or theirs is None:
            assert ours is None and theirs is None
            continue
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert np.ascontiguousarray(ours).tobytes() == theirs.tobytes()
    return True


@pytest.mark.parametrize("labeled", [False, True])
@FUZZ
@given(data=st.data())
def test_ascii_bulk_parse_matches_lines_or_declines(tmp_path, labeled, data):
    blob = saved_bytes(save_ascii, small_cloud(labeled), tmp_path / "clean.txt")
    assert bulk_agrees_with_lines(blob)
    bulk_agrees_with_lines(data.draw(corruptions(blob, [])))


@pytest.mark.parametrize(
    "text, taken",
    [
        ("0 0 0 1 1 1\n# note\n0 0 0 1 1 1\n", False),
        ("0 0 0 1 1 1 3 # inline\n", False),
        ("0 0 0 1 1 1 1_0\n", False),
        ("1_0 0 0 1 1 1\n", False),
        ("0 0 0 1 1 1 +3\n", True),
        ("0 0 0 1 1 1 3.0\n", False),
        ("0 0 0 1 1 1 007\n", True),
        ("0 0 0 1 1 1 -2\n", False),
        ("0 0 0 1 1 1 99999999999999999999\n", False),
        ("nan 0 0 1 1 1\n", False),
        ("0 0 0 nan 1 1\n", False),
        ("1e400 0 0 1 1 1\n", False),
        ("0 0 0 1.5 1 1\n", False),
        ("0x1p3 0 0 1 1 1\n", False),
        ("1. .5 -2e-3 0.25 1 0\n", True),
        ("0\t0\t0\t1\t1\t1\n", True),
        ("0\x0b0 0 1 1 1\x0c\n", True),
        ("0\x1c0 0 1 1 1\n", True),
        ("0 0 0 1 1 1\r\n0 1 0 1 1 1\r\n", True),
        ("0 0 0 1 1 1\r0 1 0 1 1 1\n", True),
        ("\n  \n0 0 0 1 1 1\n\n\t\n0 1 0 1 1 1", True),
        ("0 0 0 1 1 1\n0 0 0 1 1 1 2\n", False),
        ("0 0 0 1 1 1 2\n0 0 0 1 1 1\n", False),
        ("0 0 0 1 1\n", False),
        ("0 0 0 1 1 1 2 3\n", False),
        ("0 0 0 1 1 1\x00\n", False),
        ("", False),
        ("\n \n", False),
        ("0 0 0 1 1 1 caf\u00e9\n", False),
    ],
)
def test_ascii_bulk_parse_on_crafted_lines(text, taken):
    assert bulk_agrees_with_lines(text.encode("utf-8")) == taken


@pytest.mark.parametrize("labeled", [False, True])
@FUZZ
@given(data=st.data())
def test_epcc_corruption(tmp_path, labeled, data):
    blob = saved_bytes(save_binary, small_cloud(labeled), tmp_path / "clean.epcc")
    blob = data.draw(corruptions(blob, EPCC_FIELDS))
    check_load(load_binary, save_binary, blob, tmp_path / "scene.epcc")


@FUZZ
@given(data=st.data())
def test_epck_corruption(tmp_path, data):
    params = encoder_init(9, 3, 2, seed=0)
    fields, offset = [(4, "<I"), (8, "<I")], 12  # version, layer count
    for w in params.weights:  # each layer's fan_out and fan_in
        fields += [(offset, "<I"), (offset + 4, "<I")]
        offset += 8 + 8 * (w.size + w.shape[0])
    blob = saved_bytes(save_checkpoint, params, tmp_path / "clean.epck")
    blob = data.draw(corruptions(blob, fields))
    check_load(load_checkpoint, save_checkpoint, blob, tmp_path / "enc.epck")
