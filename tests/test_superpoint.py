"""Segmentation: feature construction, grid seeding, Lloyd invariants,
blob recovery and purity."""

import tracemalloc

import numpy as np
import pytest

from epcontrast import (
    KMeansConfig,
    PointCloud,
    SegmentAssignment,
    SyntheticSceneConfig,
    kmeans_segments,
    generate_scene,
    kmeans_segments_with_history,
    segment_features,
)
from epcontrast import numcore, superpoint
from epcontrast.errors import PartitionError
from epcontrast.rng import substream
from epcontrast.superpoint import _assign, _grid_seeds, _occupied, lloyd_kmeans


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


def segment_purity(seg, labels):
    """Share of points whose segment's majority label is their own."""
    counts = np.zeros((seg.num_segments, labels.max() + 1), np.int64)
    np.add.at(counts, (seg.segment_of, labels), 1)
    return counts.max(axis=1).sum() / labels.size


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

    def test_uint64_ids_beyond_int64_name_their_value(self):
        message = r"^segment ids must lie in \[0, 2\), got range \[0, 18446744073709551615\]$"
        with pytest.raises(PartitionError, match=message):
            SegmentAssignment(np.array([0, 2**64 - 1], np.uint64), 2)
        with pytest.raises(PartitionError, match=r"range \[1, 9223372036854775808\]$"):
            SegmentAssignment(np.array([2**63, 1], np.uint64), 2)

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
        """Five distinct points repeated eight times, split 12 ways: the grid
        seeding finds at most five occupied cells and fills the other seeds
        with points, which repeat, so the assignment leaves clusters empty
        and the repair must fill every one."""
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

    def test_segment_purity_on_sixteen_blobs(self):
        # k-means++ seeding reached a least purity of 0.98438 and a mean of
        # 0.99609 over these ten scenes; the grid seeding must not fall below
        purities = []
        for seed in range(10):
            scene = generate_scene(SyntheticSceneConfig(num_clusters=16, points_per_cluster=32,
                                                        seed=seed))
            seg = kmeans_segments(scene, KMeansConfig(target_segments=64, seed=seed))
            purities.append(segment_purity(seg, scene.labels))
        assert min(purities) >= 0.984 and np.mean(purities) >= 0.996, purities

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        cloud = random_scene(rng, 80)
        cfg = KMeansConfig(target_segments=6, seed=99)
        a = kmeans_segments(cloud, cfg)
        b = kmeans_segments(cloud, cfg)
        np.testing.assert_array_equal(a.segment_of, b.segment_of)


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
        centers = _grid_seeds(feats, m, rng)
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

    def test_repair_replicates_fresh_temporaries(self):
        """The repair's distances from one reused buffer are the bytes of
        np.sum((features - centers[labels]) ** 2, axis=1), so it moves the
        same points."""
        feats = segment_features(random_scene(substream(860, 0), 400), 1.0)
        centers = _grid_seeds(feats, 120, substream(861, 0))
        xa = np.hstack([feats, np.ones((400, 1))])
        labels = np.empty(400, dtype=np.int64)
        _assign(xa, centers, labels)
        counts = np.bincount(labels, minlength=120)
        assert np.count_nonzero(counts == 0) > 5
        want_labels, want_counts = labels.copy(), counts.copy()
        dist_to_own = np.sum((feats - centers[want_labels]) ** 2, axis=1)
        for empty in np.flatnonzero(want_counts == 0):
            thief = int(np.argmax(np.where(want_counts[want_labels] > 1, dist_to_own, -np.inf)))
            want_counts[want_labels[thief]] -= 1
            want_labels[thief] = empty
            want_counts[empty] += 1
            dist_to_own[thief] = 0.0
        superpoint._repair_empty(labels, counts, feats, centers)
        assert labels.tobytes() == want_labels.tobytes()
        assert counts.tobytes() == want_counts.tobytes()

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


def spy_grids(monkeypatch):
    """Record the g of every grid that the seeding bins positions on."""
    grids, real = [], superpoint._grid_cells

    def spy(pos, g, shift):
        grids.append(g)
        return real(pos, g, shift)

    monkeypatch.setattr(superpoint, "_grid_cells", spy)
    return grids


def reference_cells(feats, g, shift):
    """{cell: point indices} of the grid, binned one point at a time."""
    cells = {}
    for i, p in enumerate(feats[:, :3]):
        cell = tuple(int(np.floor(p[a] * g + shift[a])) for a in range(3))
        cells.setdefault(cell, []).append(i)
    return cells


class TestGridSeeding:
    @pytest.mark.parametrize("m", [7, 40])
    def test_same_bytes_per_seed_and_other_centers_across_seeds(self, m):
        feats = segment_features(random_scene(substream(850, m), 500), 1.0)
        first = _grid_seeds(feats, m, substream(851, 0))
        assert first.tobytes() == _grid_seeds(feats, m, substream(851, 0)).tobytes()
        for seed in range(1, 5):
            assert not np.array_equal(first, _grid_seeds(feats, m, substream(851, seed)))

    def test_takes_one_draw_of_three_uniforms(self):
        feats = segment_features(random_scene(substream(852, 0), 300), 1.0)
        for m in (1, 12, 299):
            rng, ref = substream(853, m), substream(853, m)
            _grid_seeds(feats, m, rng)
            ref.random(3)
            assert rng.random(4).tobytes() == ref.random(4).tobytes()

    @pytest.mark.parametrize("m", [1, 5, 30, 150])
    def test_means_of_the_most_populated_cells_of_the_coarsest_grid(self, m, monkeypatch):
        feats = segment_features(random_scene(substream(854, m), 400), 1.0)
        grids = spy_grids(monkeypatch)
        centers = _grid_seeds(feats, m, substream(855, m))
        g, shift = grids[-1], substream(855, m).random(3)
        cells = reference_cells(feats, g, shift)
        assert len(cells) >= m and (g == 1 or len(reference_cells(feats, g - 1, shift)) < m)
        top = sorted(cells, key=lambda c: (-len(cells[c]), c))[:m]
        want = np.array([feats[cells[c]].mean(axis=0) for c in top])
        np.testing.assert_allclose(centers, want, rtol=1e-12, atol=1e-15)

    @staticmethod
    def edge_features(case):
        rng = substream(856, 0)
        pos, col = rng.normal(size=(60, 3)), rng.uniform(0, 1, (60, 3))
        if case == "identical":
            pos, col = np.ones((60, 3)), np.full((60, 3), 0.25)
        elif case == "flat":
            pos[:, 1] = 3.0
        elif case == "few_positions":  # 4 distinct positions, 60 distinct colors
            pos = np.repeat(pos[:4], 15, axis=0)
        return segment_features(PointCloud(pos, col), 1.0)

    @pytest.mark.parametrize("case, m", [
        ("random", 1), ("random", 59), ("identical", 1), ("identical", 9),
        ("flat", 20), ("few_positions", 10),
    ])
    def test_edges_seed_m_centers_and_lloyd_fills_every_segment(self, case, m):
        feats = self.edge_features(case)
        centers = _grid_seeds(feats, m, substream(857, m))
        assert centers.shape == (m, 6) and np.all(np.isfinite(centers))
        if case == "flat":  # the flat axis maps to 0.5, so does every center
            np.testing.assert_array_equal(centers[:, 1], 0.5)
        labels, _, _ = lloyd_kmeans(feats, m, 10, 1e-4, substream(857, m))
        np.testing.assert_array_equal(np.unique(labels), np.arange(m))

    @pytest.mark.parametrize("case, distinct", [("identical", 1), ("few_positions", 4)])
    def test_search_ends_at_the_finest_grid_and_fills_from_points(self, case, distinct,
                                                                   monkeypatch):
        feats = self.edge_features(case)
        m, n = 10, feats.shape[0]
        grids = spy_grids(monkeypatch)
        tracemalloc.start()
        try:
            centers = _grid_seeds(feats, m, substream(858, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # doubling from 1 to the finest grid, then the binning that is kept
        assert grids == [2**i for i in range(21)] + [superpoint._MAX_GRID]
        assert peak <= 64 * n * 8  # no array spans the finest grid
        fill = (np.arange(m - distinct) * n) // (m - distinct)
        assert centers[distinct:].tobytes() == feats[fill].tobytes()
        assert np.unique(centers[:distinct], axis=0).shape[0] == distinct

    def test_occupied_counts_distinct_ids(self):
        ids = substream(859, 0).integers(-5, 2**62, size=200)
        ids[::3] = ids[1::3][: ids[::3].size]
        assert _occupied(ids) == np.unique(ids).size
        assert _occupied(np.array([7])) == 1


class TestSegmentCount:
    @pytest.mark.parametrize("m", [0, -1, 11])
    def test_lloyd_rejects_segment_counts_outside_one_to_n(self, m):
        feats = segment_features(random_scene(substream(839, 0), 10), 1.0)
        with pytest.raises(PartitionError, match="10 points"):
            lloyd_kmeans(feats, m, 5, 0.0, substream(839, 1))
