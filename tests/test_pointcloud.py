"""Data model, file formats, and augmentation determinism."""

import re
import struct
import warnings

import numpy as np
import pytest

from epcontrast import (
    AugmentParams,
    PointCloud,
    augment,
    load_ascii,
    load_binary,
    make_view_pair,
    save_ascii,
    save_binary,
)
from epcontrast.errors import FormatError, ParseError, PayloadLengthError, RangeError, ShapeError
from epcontrast.rng import substream


def random_cloud(rng, n=50, labeled=False):
    labels = rng.integers(0, 5, size=n) if labeled else None
    return PointCloud(rng.normal(size=(n, 3)) * 3.0, rng.uniform(0, 1, size=(n, 3)), labels)


class TestPointCloudInvariants:
    def test_color_out_of_range_rejected(self):
        with pytest.raises(RangeError):
            PointCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.5]]))

    def test_label_length_must_match(self):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), np.array([1]))

    @pytest.mark.parametrize("labels, dtype", [
        (np.array([0.5, 1.7]), "float64"),
        (np.array([np.nan, 1.0]), "float64"),
        (np.array(["0", "1"]), "<U1"),
        (np.array([True, False]), "bool"),
    ], ids=["fractional", "nan", "str", "bool"])
    def test_labels_must_be_integers(self, labels, dtype):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dtype is checked before any cast can warn
            with pytest.raises(RangeError, match=f"^labels must be integers, got dtype {dtype}$"):
                PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), labels)

    def test_integer_labels_of_any_width_are_kept_as_int64(self):
        cloud = PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 7], np.uint8))
        assert cloud.labels.dtype == np.int64 and cloud.labels.tolist() == [0, 7]

    @pytest.mark.parametrize("top", [2**63, 2**64 - 1])
    def test_uint64_labels_beyond_int64_name_their_value(self, top):
        labels = np.array([0, top], np.uint64)
        with pytest.raises(RangeError, match=f"^labels must be below 2\\*\\*63, got {top}$"):
            PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), labels)
        cloud = PointCloud(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 2**63 - 1], np.uint64))
        assert cloud.labels.tolist() == [0, 2**63 - 1]

    def test_needs_at_least_one_point(self):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


class TestAsciiFormat:
    def test_single_unlabeled_point(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0 1 1 1\n")
        cloud = load_ascii(path)
        assert cloud.n == 1 and cloud.labels is None

    def test_single_labeled_point(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1 2 3 0.5 0.5 0.5 7\n")
        cloud = load_ascii(path)
        assert cloud.labels is not None and cloud.labels[0] == 7

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n0 0 0 1 1 1\n")
        assert load_ascii(path).n == 1

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, labeled=True)
        path = tmp_path / "rt.txt"
        save_ascii(cloud, path)
        back = load_ascii(path)
        np.testing.assert_allclose(back.positions, cloud.positions, atol=1e-9)
        np.testing.assert_allclose(back.colors, cloud.colors, atol=1e-9)
        np.testing.assert_array_equal(back.labels, cloud.labels)

    def test_text_is_each_shortest_repr_then_the_label(self, tmp_path):
        positions = np.array([[0.1, -2.5, 1e-300], [3.0, 1e22, -0.0]])
        colors = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 0.5]])
        path = tmp_path / "pin.txt"
        save_ascii(PointCloud(positions, colors, np.array([2**32, 0])), path)
        assert path.read_text() == (
            "0.1 -2.5 1e-300 0.1 0.2 0.3 4294967296\n3.0 1e+22 -0.0 1.0 0.0 0.5 0\n"
        )
        save_ascii(PointCloud(positions, colors), path)
        assert path.read_text() == "0.1 -2.5 1e-300 0.1 0.2 0.3\n3.0 1e+22 -0.0 1.0 0.0 0.5\n"

    @pytest.mark.parametrize("labeled", [True, False])
    def test_roundtrip_is_exact(self, tmp_path, labeled):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, labeled=labeled)
        if labeled:  # labels beyond EPCC's uint32, which the ASCII format keeps
            cloud = PointCloud(cloud.positions, cloud.colors, cloud.labels + 2**40)
        path = tmp_path / "rt.txt"
        save_ascii(cloud, path)
        back = load_ascii(path)
        assert back.positions.tobytes() == cloud.positions.tobytes()
        assert back.colors.tobytes() == cloud.colors.tobytes()
        if labeled:
            assert back.labels.tobytes() == cloud.labels.tobytes()
        else:
            assert back.labels is None

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 1 1 1\n0 0 nope 1 1\n")
        with pytest.raises(ParseError, match=":2"):
            load_ascii(path)

    def test_color_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 2 0 0\n")
        with pytest.raises(RangeError):
            load_ascii(path)

    def test_nan_color_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0 0 0.5 0.5 0.5\n0 0 0 nan 0.5 0.5\n")
        with pytest.raises(RangeError, match=":2"):
            load_ascii(path)

    def test_nan_position_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0 0 0.5 0.5 0.5\n0 nan 0 0.5 0.5 0.5\n")
        with pytest.raises(RangeError, match=":2: non-finite position"):
            load_ascii(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"0 0 0 1 1 1\n# caf\xc3\xa9\n0 0 0 1 1 1\xff\n")
        with pytest.raises(ParseError, match=r"bytes\.txt:3: not valid UTF-8"):
            load_ascii(path)

    def test_overflowing_label_names_its_line(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0 0 0 1 1 1 3\n0 0 0 1 1 1 99999999999999999999\n")
        with pytest.raises(RangeError, match=r"big\.txt:2: label 99999999999999999999"):
            load_ascii(path)

    def test_negative_label_names_its_line(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 0 0 1 1 1 3\n1 1 1 0.5 0.5 0.5 -2\n")
        with pytest.raises(RangeError, match=r"neg\.txt:2: labels must be non-negative, got -2"):
            load_ascii(path)

    def test_mixed_label_modes_rejected(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("0 0 0 1 1 1\n0 0 0 1 1 1 3\n")
        with pytest.raises(FormatError, match="mixed"):
            load_ascii(path)


class TestBinaryFormat:
    def test_unlabeled_size_is_41_bytes_for_one_point(self, tmp_path):
        path = tmp_path / "one.epcc"
        save_binary(PointCloud(np.zeros((1, 3)), np.ones((1, 3))), path)
        assert path.stat().st_size == 41

    def test_labeled_size_is_73_bytes_for_two_points(self, tmp_path):
        path = tmp_path / "two.epcc"
        save_binary(PointCloud(np.zeros((2, 3)), np.ones((2, 3)), np.array([1, 2])), path)
        assert path.stat().st_size == 73

    def test_label_beyond_uint32_rejected_before_the_file_is_opened(self, tmp_path):
        top = tmp_path / "top.epcc"
        save_binary(PointCloud(np.zeros((2, 3)), np.ones((2, 3)), np.array([0, 2**32 - 1])), top)
        assert load_binary(top).labels[1] == 2**32 - 1
        path = tmp_path / "wide.epcc"
        cloud = PointCloud(np.zeros((2, 3)), np.ones((2, 3)), np.array([1, 2**32 + 5]))
        with pytest.raises(RangeError, match=r"wide\.epcc: label 4294967301"):
            save_binary(cloud, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e39, -4e38])
    def test_position_beyond_float32_rejected_before_the_file_is_opened(self, tmp_path, value):
        top = tmp_path / "top.epcc"
        largest = float(np.finfo(np.float32).max)
        save_binary(PointCloud(np.full((2, 3), -largest), np.ones((2, 3))), top)
        assert load_binary(top).positions[0, 0] == -largest
        positions = np.zeros((2, 3))
        positions[1, 2] = value
        path = tmp_path / "far.epcc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            match = re.escape(f"far.epcc: position {value:g} does not fit")
            with pytest.raises(RangeError, match=match):
                save_binary(PointCloud(positions, np.ones((2, 3))), path)
        assert not path.exists()

    def test_roundtrip_bit_identical_payload(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, n=100, labeled=True)
        p1, p2 = tmp_path / "a.epcc", tmp_path / "b.epcc"
        save_binary(cloud, p1)
        back = load_binary(p1)
        save_binary(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(back.labels, cloud.labels)

    def test_nan_color_rejected(self, tmp_path):
        path = tmp_path / "nan.epcc"
        save_binary(PointCloud(np.zeros((2, 3)), np.ones((2, 3))), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 17 + 4 * 4, float("nan"))  # point 0, green
        path.write_bytes(bytes(blob))
        with pytest.raises(RangeError, match=r"nan\.epcc: color"):
            load_binary(path)

    def test_nan_position_rejected(self, tmp_path):
        path = tmp_path / "nan.epcc"
        save_binary(PointCloud(np.zeros((2, 3)), np.ones((2, 3))), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 17 + 6 * 4 + 2 * 4, float("nan"))  # point 1, z
        path.write_bytes(bytes(blob))
        with pytest.raises(RangeError, match=r"nan\.epcc: positions contain non-finite"):
            load_binary(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epcc"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            load_binary(path)

    def test_truncation_reports_expected_vs_actual(self, tmp_path):
        path = tmp_path / "trunc.epcc"
        save_binary(PointCloud(np.zeros((2, 3)), np.ones((2, 3))), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(PayloadLengthError, match="expected 65 bytes.*got 60"):
            load_binary(path)


class TestAugment:
    def test_rigid_motion_preserves_distances(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(rng, n=30)
        params = AugmentParams(scale_min=1.0, scale_max=1.0, jitter_sigma=0.0, jitter_clip=0.0)
        out = augment(cloud, params, substream(9, 0))
        before = np.linalg.norm(cloud.positions[:, None] - cloud.positions[None], axis=2)
        after = np.linalg.norm(out.positions[:, None] - out.positions[None], axis=2)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_pure_scale_doubles_centroid_norms(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, n=30)
        params = AugmentParams(scale_min=2.0, scale_max=2.0, jitter_sigma=0.0, jitter_clip=0.0)
        out = augment(cloud, params, substream(9, 1))
        r_in = np.linalg.norm(cloud.positions - cloud.positions.mean(0), axis=1)
        r_out = np.linalg.norm(out.positions - out.positions.mean(0), axis=1)
        np.testing.assert_allclose(r_out, 2.0 * r_in, atol=1e-9)

    def test_isometry_up_to_scale_with_zero_jitter(self):
        rng = np.random.default_rng(16)
        cloud = random_cloud(rng, n=20)
        params = AugmentParams(scale_min=0.5, scale_max=1.7, jitter_sigma=0.0, jitter_clip=0.0)
        stream = substream(21, 0)
        scale = substream(21, 0).uniform(params.scale_min, params.scale_max)
        out = augment(cloud, params, stream)
        before = np.linalg.norm(cloud.positions[:, None] - cloud.positions[None], axis=2)
        after = np.linalg.norm(out.positions[:, None] - out.positions[None], axis=2)
        np.testing.assert_allclose(after, scale * before, atol=1e-9)

    def test_same_stream_bit_identical(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, labeled=True)
        params = AugmentParams()
        a = augment(cloud, params, substream(33, 4))
        b = augment(cloud, params, substream(33, 4))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_colors_labels_order_untouched(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, labeled=True)
        out = augment(cloud, AugmentParams(), substream(1, 2))
        np.testing.assert_array_equal(out.colors, cloud.colors)
        np.testing.assert_array_equal(out.labels, cloud.labels)
        assert out.n == cloud.n

    def test_jitter_bounded_by_clip(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, n=200)
        params = AugmentParams(scale_min=1.0, scale_max=1.0, rot_max=0.0,
                               jitter_sigma=0.05, jitter_clip=0.05)
        out = augment(cloud, params, substream(2, 0))
        assert np.max(np.abs(out.positions - cloud.positions)) <= 0.05 + 1e-12


class TestMakeViewPair:
    def test_zero_strength_pair_equals_source_exactly(self):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng)
        identity = AugmentParams(scale_min=1.0, scale_max=1.0, rot_max=0.0,
                                 jitter_sigma=0.0, jitter_clip=0.0)
        view1, view2 = make_view_pair(cloud, identity, seed=5)
        np.testing.assert_array_equal(view1.positions, cloud.positions)
        np.testing.assert_array_equal(view2.positions, cloud.positions)

    def test_preserves_n(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, n=17)
        view1, view2 = make_view_pair(cloud, AugmentParams(), seed=6)
        assert view1.n == view2.n == 17

    def test_deterministic_and_views_differ(self, tmp_path):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng)
        a = make_view_pair(cloud, AugmentParams(), seed=7)
        b = make_view_pair(cloud, AugmentParams(), seed=7)
        for va, vb in zip(a, b):
            pa, pb = tmp_path / "a.epcc", tmp_path / "b.epcc"
            save_binary(va, pa)
            save_binary(vb, pb)
            assert pa.read_bytes() == pb.read_bytes()
        a1, a2 = a
        assert not np.array_equal(a1.positions, a2.positions)
