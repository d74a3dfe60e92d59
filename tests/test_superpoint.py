"""Segmentation: feature construction, Lloyd invariants, blob recovery."""

import numpy as np
import pytest

from epcontrast import (
    KMeansConfig,
    PointCloud,
    SegmentAssignment,
    kmeans_segments,
    kmeans_segments_with_history,
    segment_features,
)
from epcontrast import numcore, superpoint
from epcontrast.errors import PartitionError
from epcontrast.rng import substream
from epcontrast.superpoint import _assign, _kmeans_pp_init, _sq_dists_to, lloyd_kmeans


def two_blob_scene(rng, per_blob=60, separation=50.0):
    """Blobs far apart in space and color; membership is the ground truth."""
    a = rng.normal(size=(per_blob, 3))
    b = rng.normal(size=(per_blob, 3)) + separation
    colors = np.vstack([
        np.full((per_blob, 3), 0.1) + rng.uniform(0, 0.05, (per_blob, 3)),
        np.full((per_blob, 3), 0.9) - rng.uniform(0, 0.05, (per_blob, 3)),
    ])
    truth = np.repeat([0, 1], per_blob)
    return PointCloud(np.vstack([a, b]), colors), truth


def random_scene(rng, n):
    return PointCloud(rng.normal(size=(n, 3)) * 2.0, rng.uniform(0, 1, (n, 3)))


class TestSegmentAssignment:
    def test_rejects_empty_segment(self):
        with pytest.raises(PartitionError, match="empty"):
            SegmentAssignment(np.array([0, 0, 2]), 3)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(PartitionError):
            SegmentAssignment(np.array([0, 3]), 2)

    @pytest.mark.parametrize("ids, dtype", [
        (np.array([0.5, 1.7]), "float64"),
        (np.array([np.nan, 1.0]), "float64"),
        (np.array([False, True]), "bool"),
    ], ids=["fractional", "nan", "bool"])
    def test_rejects_ids_that_are_not_integers(self, ids, dtype):
        message = f"^segment ids must be integers, got dtype {dtype}$"
        with pytest.raises(PartitionError, match=message):
            SegmentAssignment(ids, 2)

    @pytest.mark.parametrize("m", [2.5, 0])
    def test_rejects_a_segment_count_that_is_not_a_positive_integer(self, m):
        message = f"^num_segments must be an integer >= 1, got {m}$"
        with pytest.raises(PartitionError, match=message):
            SegmentAssignment(np.array([0, 1]), m)

    def test_integer_ids_and_count_of_any_width_are_kept(self):
        seg = SegmentAssignment(np.array([1, 0], np.uint16), np.int32(2))
        assert seg.segment_of.dtype == np.int64 and type(seg.num_segments) is int

    def test_sizes_are_the_bincount_of_the_ids(self):
        ids = np.concatenate([np.arange(7), substream(840, 0).integers(0, 7, size=50)])
        seg = SegmentAssignment(ids, 7)
        np.testing.assert_array_equal(seg.sizes, np.bincount(seg.segment_of))
        assert seg.sizes is seg.sizes  # counted once, not on each access


class TestSegmentFeatures:
    def test_min_max_endpoints(self):
        cloud = PointCloud(
            np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
            np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
        )
        feats = segment_features(cloud, 1.0)
        np.testing.assert_array_equal(feats[0], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(feats[1], [1, 1, 1, 0, 0, 0])

    def test_zero_color_weight_zeroes_color_columns(self):
        rng = np.random.default_rng(0)
        feats = segment_features(random_scene(rng, 10), 0.0)
        np.testing.assert_array_equal(feats[:, 3:], 0.0)

    def test_single_point_maps_to_half(self):
        cloud = PointCloud(np.array([[3.0, -1.0, 2.0]]), np.array([[0.2, 0.4, 0.6]]))
        feats = segment_features(cloud, 1.0)
        np.testing.assert_array_equal(feats[0, :3], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize("flat", [0, 1, 2])
    def test_one_flat_axis_maps_to_half(self, flat):
        rng = substream(841, flat)
        pos = rng.normal(size=(30, 3)) * 3.0
        pos[:, flat] = -1.25
        feats = segment_features(PointCloud(pos, rng.uniform(0, 1, (30, 3))), 1.0)
        np.testing.assert_array_equal(feats[:, flat], 0.5)
        lo, span = pos.min(axis=0), pos.max(axis=0) - pos.min(axis=0)
        for axis in {0, 1, 2} - {flat}:
            expect = (pos[:, axis] - lo[axis]) / span[axis]
            assert feats[:, axis].tobytes() == expect.tobytes()


class TestKMeansSegments:
    def test_singleton_partition_when_m_reaches_n(self):
        rng = np.random.default_rng(1)
        cloud = random_scene(rng, 12)
        seg = kmeans_segments(cloud, KMeansConfig(target_segments=40))
        assert seg.num_segments == 12
        np.testing.assert_array_equal(np.sort(seg.segment_of), np.arange(12))

    def test_partition_invariants_many_seeds(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            n = int(rng.integers(20, 120))
            m = int(rng.integers(2, 12))
            cloud = random_scene(rng, n)
            seg = kmeans_segments(cloud, KMeansConfig(target_segments=m, seed=seed))
            assert seg.segment_of.shape == (n,)
            counts = np.bincount(seg.segment_of, minlength=seg.num_segments)
            assert np.all(counts >= 1)  # covering + non-empty, disjoint by construction

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            cloud = random_scene(rng, 150)
            _, history = kmeans_segments_with_history(
                cloud, KMeansConfig(target_segments=8, seed=seed)
            )
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9), f"seed {seed}: objective rose by {diffs.max()}"

    def test_two_blob_recovery_twenty_seeds(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            cloud, truth = two_blob_scene(rng)
            seg = kmeans_segments(cloud, KMeansConfig(target_segments=2, seed=seed))
            labels = seg.segment_of
            agreement = max(np.mean(labels == truth), np.mean(labels == 1 - truth))
            assert agreement == 1.0, f"seed {seed}: {agreement}"

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_points_leave_no_id_unused(self, seed, monkeypatch):
        """Five distinct points repeated eight times, split 12 ways: k-means++
        runs out of weight and picks duplicate centers, the assignment
        leaves clusters empty, and the repair must fill every one."""
        rng = substream(842, seed)
        base = random_scene(rng, 5)
        cloud = PointCloud(np.tile(base.positions, (8, 1)), np.tile(base.colors, (8, 1)))
        cfg = KMeansConfig(target_segments=12, max_iters=6, seed=seed)
        repaired = []
        real = superpoint._repair_empty

        def spy(labels, counts, features, centers):
            repaired.append(bool(np.any(counts == 0)))
            real(labels, counts, features, centers)

        monkeypatch.setattr(superpoint, "_repair_empty", spy)
        labels, _, _ = lloyd_kmeans(segment_features(cloud, cfg.color_weight), 12,
                                    cfg.max_iters, cfg.tol, substream(cfg.seed, 0))
        assert any(repaired)
        np.testing.assert_array_equal(np.unique(labels), np.arange(12))
        seg, _ = kmeans_segments_with_history(cloud, cfg)
        assert seg.num_segments == 12
        np.testing.assert_array_equal(seg.segment_of, labels)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        cloud = random_scene(rng, 80)
        cfg = KMeansConfig(target_segments=6, seed=99)
        a = kmeans_segments(cloud, cfg)
        b = kmeans_segments(cloud, cfg)
        np.testing.assert_array_equal(a.segment_of, b.segment_of)


def choice_kmeans_pp(features, m, rng):
    """k-means++ seeding through ``rng.choice(n, p=...)``, as first written."""
    n = features.shape[0]
    centers = np.empty((m, features.shape[1]))
    centers[0] = features[rng.integers(n)]
    d2 = np.sum((features - centers[0]) ** 2, axis=1)
    for k in range(1, m):
        total = d2.sum()
        idx = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2 / total)
        centers[k] = features[idx]
        d2 = np.minimum(d2, np.sum((features - centers[k]) ** 2, axis=1))
    return centers


class TestLloydKernels:
    @pytest.mark.parametrize("m", [2, 7, 40])
    def test_row_blocks_do_not_change_a_bit(self, m, monkeypatch):
        feats = segment_features(random_scene(substream(830, m), 200), 1.0)
        whole = lloyd_kmeans(feats, m, 20, 0.0, substream(831, m))
        monkeypatch.setattr(numcore, "_ASSIGN_BLOCK_BYTES", 8 * m * 3)
        assert [b.stop - b.start for b in numcore._gemm_row_blocks(200, m)][:2] == [3, 3]
        gemm_rows, real_matmul = [], np.matmul

        def matmul(a, b, **kw):
            gemm_rows.append(a.shape[0])
            return real_matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", matmul)
        blocked = lloyd_kmeans(feats, m, 20, 0.0, substream(831, m))
        monkeypatch.undo()
        # every Lloyd iteration scored 66 blocks of three rows and one of two
        assert gemm_rows == ([3] * 66 + [2]) * len(blocked[2])
        np.testing.assert_array_equal(blocked[0], whole[0])
        np.testing.assert_array_equal(blocked[1], whole[1])
        assert blocked[2] == whole[2]

    @pytest.mark.parametrize("m", [2, 7, 40, 2000])
    def test_assignment_replicates_unfused_scores(self, m):
        # two full blocks and a one-row tail, which must join the second
        # block: a one-row matmul goes to gemv and rounds differently
        step = numcore._ASSIGN_BLOCK_BYTES // (8 * m)
        n = 2 * step + 1
        rng = substream(834, m)
        x = segment_features(random_scene(rng, n), 1.0)
        centers = x[rng.choice(n, size=m, replace=m > n)]
        centers[2::3] = centers[:-2:3]  # duplicates: exact ties
        x[::5] = centers[rng.integers(m, size=x[::5].shape[0])]  # points on centers
        pairs = centers[rng.integers(m, size=(2, x[1::5].shape[0]))]
        x[1::5] = 0.5 * (pairs[0] + pairs[1])  # midpoints: ties up to rounding
        blocks = numcore._gemm_row_blocks(n, m)
        assert [b.stop - b.start for b in blocks] == [step, step + 1]
        xa = np.hstack([x, np.ones((n, 1))])
        labels = np.empty(n, dtype=np.int64)
        _assign(xa, centers, labels)
        expected = np.argmin(x @ (-2.0 * centers).T + np.sum(centers**2, axis=1), axis=1)
        np.testing.assert_array_equal(labels, expected)

    @pytest.mark.parametrize("m, tol", [(7, 1e-4), (40, 1e-4), (40, 0.0)])
    def test_loop_replicates_norm_and_fresh_temporaries(self, m, tol):
        """The objective from one reused buffer and the shift from norm's own
        ops give the bytes, and the stopping step, of Lloyd's loop written
        with np.linalg.norm and fresh (N, D) temporaries."""
        feats = segment_features(random_scene(substream(836, m), 300), 1.0)
        got = lloyd_kmeans(feats, m, 30, tol, substream(837, m))
        rng = substream(837, m)
        centers = _kmeans_pp_init(feats, m, rng)
        xa = np.hstack([feats, np.ones((len(feats), 1))])
        labels = np.empty(len(feats), dtype=np.int64)
        history = []
        for _ in range(30):
            _assign(xa, centers, labels)
            counts = np.bincount(labels, minlength=m)
            superpoint._repair_empty(labels, counts, feats, centers)
            new_centers = numcore._segment_sums(labels, feats, m) / counts[:, None]
            shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
            centers = new_centers
            history.append(float(np.sum((feats - centers[labels]) ** 2)))
            if shift < tol:
                break
        assert got[2] == history and (tol == 0.0 or len(history) < 30)
        assert got[0].tobytes() == labels.tobytes()
        assert got[1].tobytes() == centers.tobytes()

    def test_gemm_row_blocks_never_leave_one_row(self):
        for n in range(1, 40):
            for row_len in (1, 10, 1 << 20):
                blocks = numcore._gemm_row_blocks(n, row_len)
                sizes = [b.stop - b.start for b in blocks]
                assert blocks[0].start == 0 and blocks[-1].stop == n
                assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
                assert min(sizes) >= 2 or n == 1
                step = max(2, numcore._ASSIGN_BLOCK_BYTES // (8 * row_len))
                assert max(sizes) <= step + 1

    def test_seeding_draws_what_choice_draws(self):
        # the random stream is part of the determinism contract: same
        # centers and the generator left in the same state
        rng = substream(832, 0)
        scenes = [segment_features(random_scene(rng, int(rng.integers(20, 300))), 1.0)
                  for _ in range(19)]
        # 6 distinct points repeated: the mass runs out and picks go uniform
        scenes.append(np.repeat(scenes[0][:6], 5, axis=0))
        for seed, feats in enumerate(scenes):
            m = min(12, feats.shape[0])
            ours, theirs = substream(833, seed), substream(833, seed)
            np.testing.assert_array_equal(
                _kmeans_pp_init(feats, m, ours), choice_kmeans_pp(feats, m, theirs)
            )
            assert ours.random() == theirs.random()


class _TopOfUnitGenerator:
    """A generator whose ``random()`` is the largest double below 1, so
    every weighted pick lands at the far end of the D² weights; its
    ``integers`` are a real generator's."""

    def __init__(self, rng):
        self.integers = rng.integers

    def random(self):
        return float(np.nextafter(1.0, 0.0))


class TestSeedingEdges:
    def test_draws_at_the_top_pick_weighted_points(self):
        rng = substream(835, 0)
        scenes = [segment_features(random_scene(rng, n), 1.0) for n in (7, 64, 65, 200, 1000)]
        for seed, feats in enumerate(scenes):
            m = min(40, feats.shape[0])
            centers = _kmeans_pp_init(feats, m, _TopOfUnitGenerator(substream(836, seed)))
            assert np.unique(centers, axis=0).shape[0] == m
        # 6 distinct points repeated: six weighted picks, then uniform ones
        feats = np.repeat(scenes[3][:6], 5, axis=0)
        centers = _kmeans_pp_init(feats, 12, _TopOfUnitGenerator(substream(836, 9)))
        assert np.unique(centers[:6], axis=0).shape[0] == 6

    def test_draw_rounding_up_to_a_subnormal_total(self):
        # the weights left after the first pick are subnormal, where
        # u * total rounds up to total for u just below 1
        tiny = 2.0**-538  # squares to 2**-1076, between 0 and the least subnormal
        feats = np.zeros((130, 6))
        feats[3, 0] = 3 * tiny
        feats[70, 1] = 2 * tiny
        total = feats[3, 0] ** 2 + feats[70, 1] ** 2
        assert 0.0 < total < np.finfo(float).smallest_normal
        assert np.nextafter(1.0, 0.0) * total == total
        checked = 0
        for seed in range(8):
            rng = _TopOfUnitGenerator(substream(837, seed))
            centers = _kmeans_pp_init(feats, 3, rng)
            if not centers[0].any():  # the first pick fell on a zero point
                assert np.unique(centers, axis=0).shape[0] == 3
                checked += 1
        assert checked

    def test_distance_pass_matches_in_order_sum(self):
        rng = substream(838, 0)
        scale = 10.0 ** rng.integers(-12, 13, size=(6, 1))
        cols = rng.normal(size=(6, 3001)) * scale * 10.0 ** rng.integers(-4, 5, size=3001)
        buf, out = np.empty_like(cols), np.empty(3001)
        for center in (cols[:, 17], cols[:, 2000] * 1.5, np.zeros(6)):
            _sq_dists_to(cols, center, buf, out)
            want = np.add.reduce(np.square(cols - center[:, None]), axis=0)
            assert out.tobytes() == want.tobytes()


class TestSegmentCount:
    @pytest.mark.parametrize("m", [0, -1, 11])
    def test_lloyd_rejects_segment_counts_outside_one_to_n(self, m):
        feats = segment_features(random_scene(substream(839, 0), 10), 1.0)
        with pytest.raises(PartitionError, match="10 points"):
            lloyd_kmeans(feats, m, 5, 0.0, substream(839, 1))
