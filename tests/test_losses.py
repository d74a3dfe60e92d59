"""Loss values against brute-force oracles, gradients against differences."""

import tracemalloc

import numpy as np
import pytest

from epcontrast import (
    EvalCounter,
    KMeansConfig,
    LossConfig,
    PointCloud,
    SegmentAssignment,
    ag_contrast,
    bench_loss,
    brute_force_loss,
    channel_contrast,
    contrast,
    count_pairs,
    ep_contrast,
    kmeans_segments,
    point_infonce,
    segment_pool_backward,
)
from epcontrast import losses, numcore
from epcontrast.bench import accounted_bytes
from epcontrast.errors import (
    ConfigError,
    EmptyNegativeSetError,
    PartitionError,
    RangeError,
    ShapeError,
)
from epcontrast.losses import (
    KINDS,
    PAIR_KINDS,
    _NO_SHIFT_LIMIT,
    _point_subset,
    _segment_mean,
    _softmax_rows,
)
from epcontrast.numcore import _row_blocks, _unit_rows, _unit_rows_backward
from epcontrast.rng import substream
from epcontrast.selfcheck import (
    ORACLE_CONFIGS,
    central_diff,
    evaluate,
    gradient_mismatches,
    oracle,
    oracle_mismatches,
    random_instance,
    rel_err,
)

EYE2 = np.eye(2)
SEG2 = SegmentAssignment(np.array([0, 1]), 2)
SUM_CFG = LossConfig(reduction="sum")


class TestSegmentPool:
    def test_average_of_two_rows(self):
        f = np.array([[1.0, 3.0], [3.0, 5.0]])
        seg = SegmentAssignment(np.array([0, 0]), 1)
        np.testing.assert_array_equal(_segment_mean(f, seg), [[2.0, 4.0]])

    def test_singleton_segments_identity(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(6, 4))
        seg = SegmentAssignment(np.arange(6), 6)
        np.testing.assert_array_equal(_segment_mean(f, seg), f)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(20, 5))
        ids = np.sort(np.concatenate([np.arange(4), rng.integers(0, 4, 16)]))
        seg = SegmentAssignment(ids, 4)
        want = np.zeros((4, 5))
        for alpha in range(4):
            members = np.flatnonzero(ids == alpha)
            for k in range(5):
                want[alpha, k] = sum(f[i, k] for i in members) / len(members)
        np.testing.assert_allclose(_segment_mean(f, seg), want, rtol=0, atol=1e-12)

    def test_backward_distributes_by_size(self):
        rng = np.random.default_rng(2)
        seg = SegmentAssignment(np.array([0, 0, 1]), 2)
        g = rng.normal(size=(2, 3))
        back = segment_pool_backward(g, seg)
        np.testing.assert_allclose(back[0], g[0] / 2)
        np.testing.assert_allclose(back[2], g[1])

    def test_row_count_mismatch(self):
        f = np.zeros((3, 2))
        with pytest.raises(ShapeError, match="covers 2 points, embedding has 3 rows"):
            ag_contrast(f, f, SEG2, SUM_CFG)


class TestWorkedExamples:
    """Frozen values, each verified by the brute-force oracle."""

    def test_point_loss_orthonormal(self):
        out = point_infonce(EYE2, EYE2, SUM_CFG)
        assert out.value == pytest.approx(-2.0, abs=1e-12)
        assert out.value == pytest.approx(brute_force_loss("pc", EYE2, EYE2, cfg=SUM_CFG))

    def test_point_loss_conventional_denominator(self):
        cfg = LossConfig(reduction="sum", include_positive_in_denominator=True)
        out = point_infonce(EYE2, EYE2, cfg)
        want = 2.0 * np.log(1.0 + np.exp(-1.0))  # 0.62652...
        assert out.value == pytest.approx(want, rel=1e-12)
        assert out.value == pytest.approx(brute_force_loss("pc", EYE2, EYE2, cfg=cfg))

    def test_segment_loss_singleton_segments(self):
        out = ag_contrast(EYE2, EYE2, SEG2, SUM_CFG)
        assert out.value == pytest.approx(-2.0, abs=1e-12)
        assert out.value == pytest.approx(brute_force_loss("ag", EYE2, EYE2, SEG2, SUM_CFG))

    def test_channel_loss_orthonormal(self):
        out = channel_contrast(EYE2, EYE2, SUM_CFG)
        assert out.value == pytest.approx(-2.0, abs=1e-12)

    def test_channel_loss_swapped_columns(self):
        swapped = EYE2[:, ::-1].copy()
        out = channel_contrast(EYE2, swapped, SUM_CFG)
        assert out.value == pytest.approx(2.0, abs=1e-12)
        assert out.value == pytest.approx(brute_force_loss("cc", EYE2, swapped, cfg=SUM_CFG))

    def test_combined_loss(self):
        out = ep_contrast(EYE2, EYE2, SEG2, SUM_CFG)
        assert out.value == pytest.approx(-2.2, abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_hundred_instances_all_modes(self, kind):
        """Every ORACLE_CONFIGS entry against the brute-force oracle."""
        assert oracle_mismatches(substream(800, 0), 100, kinds=(kind,)) == []

    def test_mean_reduction_agrees_too(self):
        """The default configuration, which ORACLE_CONFIGS does not hold."""
        f1, f2, seg = random_instance(substream(801, 0), 12, 4, 3)
        cfg = LossConfig()
        for kind in KINDS:
            got = contrast(kind, f1, f2, seg, cfg).value
            assert rel_err(got, brute_force_loss(kind, f1, f2, seg, cfg)) <= 1e-10


class TestGradients:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("normalize", [False, True])
    def test_against_central_differences(self, kind, normalize):
        """The mean-reduction config with row and channel normalization off
        or on, and the ORACLE_CONFIGS entries with the same row setting."""
        configs = (
            LossConfig(reduction="mean", normalize_rows=normalize, normalize_channels=normalize),
        ) + tuple(cfg for cfg in ORACLE_CONFIGS if cfg.normalize_rows == normalize)
        rng = substream(802, 0)
        assert gradient_mismatches(rng, 5, kinds=(kind,), configs=configs) == []

    def test_sampled_denominator_gradients_are_exact(self):
        rng = substream(803, 0)
        f1, f2, _ = random_instance(rng, 10, 4, 2)
        cfg = LossConfig(reduction="mean", neg_sample_count=3)
        # freeze one sampled denominator by replaying the same stream
        out = point_infonce(f1, f2, cfg, substream(55, 0))

        def value(a, b):
            return point_infonce(a, b, cfg, substream(55, 0)).value

        num1 = central_diff(lambda x: value(x, f2), f1)
        num2 = central_diff(lambda x: value(f1, x), f2)
        assert rel_err(out.grad_f1, num1) <= 1e-5
        assert rel_err(out.grad_f2, num2) <= 1e-5


class TestStructuralProperties:
    def test_singleton_segments_reduce_to_point_loss_bitwise(self):
        rng = substream(804, 0)
        f1 = rng.normal(size=(9, 5))
        f2 = rng.normal(size=(9, 5))
        seg = SegmentAssignment(np.arange(9), 9)
        for cfg in (LossConfig(reduction="mean"), LossConfig(reduction="sum"),
                    LossConfig(reduction="sum", normalize_rows=False)):
            a = ag_contrast(f1, f2, seg, cfg)
            p = point_infonce(f1, f2, cfg)
            assert a.value == p.value
            np.testing.assert_array_equal(a.grad_f1, p.grad_f1)
            np.testing.assert_array_equal(a.grad_f2, p.grad_f2)

    def test_lambda_zero_equals_segment_loss_exactly(self):
        rng = substream(805, 0)
        f1, f2, seg = random_instance(rng, 8, 4, 3)
        cfg = LossConfig(lam=0.0, reduction="mean")
        ep = ep_contrast(f1, f2, seg, cfg)
        ag = ag_contrast(f1, f2, seg, cfg)
        assert ep.value == ag.value
        np.testing.assert_array_equal(ep.grad_f1, ag.grad_f1)

    def test_lambda_linearity(self):
        rng = substream(806, 0)
        f1, f2, seg = random_instance(rng, 8, 4, 3)
        parts = {}
        for lam in (0.0, 1.0):
            cfg = LossConfig(lam=lam, reduction="mean")
            parts[lam] = ep_contrast(f1, f2, seg, cfg)
        cc = channel_contrast(f1, f2, LossConfig(reduction="mean"))
        for lam in (0.1, 0.5, 2.0):
            out = ep_contrast(f1, f2, seg, LossConfig(lam=lam, reduction="mean"))
            assert out.value == pytest.approx(parts[0.0].value + lam * cc.value, rel=1e-12)
            np.testing.assert_allclose(
                out.grad_f1, parts[0.0].grad_f1 + lam * cc.grad_f1, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                out.grad_f2, parts[0.0].grad_f2 + lam * cc.grad_f2, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("lam", [0.0, 0.1, 2.0])
    def test_ep_names_its_terms_and_evaluates_each_once(self, lam, monkeypatch):
        rng = substream(809, 0)
        f1, f2, seg = random_instance(rng, 8, 4, 3)
        cfg = LossConfig(lam=lam, reduction="mean")
        ag = ag_contrast(f1, f2, seg, cfg).value
        cc = channel_contrast(f1, f2, cfg).value
        calls = []
        for name in ("_ag_views", "_channel_views"):
            real = getattr(losses, name)
            monkeypatch.setattr(
                losses, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
            )
        out = contrast("ep", f1, f2, seg, cfg)
        if lam == 0.0:  # the channel loss is not evaluated
            assert calls == ["_ag_views"]
            assert out.terms == {"ag": ag}
            assert out.value == ag
        else:
            assert calls == ["_ag_views", "_channel_views"]
            assert out.terms == {"ag": ag, "cc": cc}
            assert out.value == out.terms["ag"] + lam * out.terms["cc"]

    def test_single_term_kinds_name_their_value(self):
        rng = substream(810, 0)
        f1, f2, seg = random_instance(rng, 8, 4, 3)
        for kind in PAIR_KINDS:
            out = contrast(kind, f1, f2, seg, LossConfig(neg_sample_count=3), substream(810, 1))
            assert out.terms == {kind: out.value}
        assert losses.LossOutput(1.0, f1, f2).terms == {}

    def test_symmetric_segment_loss_averages_directions(self):
        rng = substream(807, 0)
        f1, f2, seg = random_instance(rng, 10, 4, 3)
        cfg = LossConfig(reduction="mean", symmetric_ag=True)
        base = LossConfig(reduction="mean")
        sym = ag_contrast(f1, f2, seg, cfg)
        fwd = ag_contrast(f1, f2, seg, base)
        rev = ag_contrast(f2, f1, seg, base)
        assert sym.value == pytest.approx(0.5 * (fwd.value + rev.value), rel=1e-12)

    def test_orthogonality_shrinks_negative_contribution(self):
        """Scaling a negative channel similarity toward 0 never raises the
        logsumexp of the negative terms."""
        rng = substream(808, 0)
        f1 = rng.normal(size=(20, 4))
        f2 = rng.normal(size=(20, 4))
        cfg = LossConfig(reduction="sum")
        h1 = f1 / np.linalg.norm(f1, axis=0)
        h2 = f2 / np.linalg.norm(f2, axis=0)
        gram = h1.T @ h2
        for shrink in (1.0, 0.7, 0.3, 0.0):
            g = gram.copy()
            g[0, 1] *= shrink
            off = np.abs(g[0][np.arange(4) != 0])
            lse = np.log(np.sum(np.exp(off / cfg.tau)))
            if shrink == 1.0:
                base = lse
            else:
                assert lse <= base + 1e-12
                base = lse

    def test_zero_channel_gives_finite_gradients(self):
        rng = substream(823, 0)
        f1, f2, _ = random_instance(rng, 16, 4, 2)
        f1[:, 1] = 0.0
        f2[:, 1] = 0.0
        for cfg in ORACLE_CONFIGS:
            out = channel_contrast(f1, f2, cfg)
            assert np.all(np.isfinite(out.grad_f1)) and np.all(np.isfinite(out.grad_f2)), cfg

    def test_channel_gradients_match_normalize_then_multiply(self):
        """The Gram-form gradients against the loss composed as written: unit
        columns, their products, and the row normalizer's backward. A zero
        column and one of norm below eps sit at the eps floor, where central
        differences cannot probe; each gets its unit column's gradient over
        eps, with no projection on the column."""
        rng = substream(824, 0)
        f1, f2, _ = random_instance(rng, 16, 4, 2)
        f1[:, 1] = 0.0
        f2[:, 2] *= 1e-14
        for cfg in ORACLE_CONFIGS:
            h1, h2 = f1.T.copy(), f2.T.copy()
            if cfg.normalize_channels:
                (h1, d1), (h2, d2) = _unit_rows(h1), _unit_rows(h2)
            gram = h1 @ h2.T
            den = np.abs(gram / cfg.tau)
            np.fill_diagonal(den, np.diagonal(gram) / cfg.tau)
            _, r = _softmax_rows(den, np.arange(4), cfg, np.abs(den).max(), 4)
            den *= r[:, None]
            sign = np.sign(gram)
            np.fill_diagonal(sign, 1.0)
            gh1, gh2 = (den * sign) @ h2, (den * sign).T @ h1
            if cfg.normalize_channels:
                gh1 = _unit_rows_backward(gh1, h1, d1)
                gh2 = _unit_rows_backward(gh2, h2, d2)
                # both floored columns carry a gradient of order 1 / eps
                assert min(np.abs(gh1[1]).max(), np.abs(gh2[2]).max()) > 1e6
            out = channel_contrast(f1, f2, cfg)
            assert rel_err(out.grad_f1, gh1.T) <= 1e-12, cfg
            assert rel_err(out.grad_f2, gh2.T) <= 1e-12, cfg

    def test_empty_negative_sets_raise(self):
        one = np.ones((1, 3))
        with pytest.raises(EmptyNegativeSetError):
            point_infonce(one, one, SUM_CFG)
        col = np.ones((4, 1))
        with pytest.raises(EmptyNegativeSetError):
            channel_contrast(col, col, SUM_CFG)
        seg_one = SegmentAssignment(np.zeros(4, dtype=int), 1)
        f = np.ones((4, 3))
        with pytest.raises(EmptyNegativeSetError):
            ag_contrast(f, f, seg_one, SUM_CFG)

    def test_anchor_with_every_entry_excluded_raises(self):
        """Without a shift the empty row's denominator is 0; with one, its
        maximum is -inf. Either way the anchor is named by its index in
        the loss, not in the block."""
        den = np.array([[0.0, 0.5], [-np.inf, 0.0]])
        for bound in (1.0, 2 * _NO_SHIFT_LIMIT):
            for cfg in (SUM_CFG,
                        LossConfig(reduction="sum", include_positive_in_denominator=True)):
                with pytest.raises(EmptyNegativeSetError, match="anchor 1 "):
                    _softmax_rows(den.copy(), np.array([0, 1]), cfg, bound, 2)
                with pytest.raises(EmptyNegativeSetError, match="anchor 8 "):
                    _softmax_rows(den.copy(), np.array([0, 1]), cfg, bound, 9, first=7)

    def test_dispatch_rejects_unknown_kind_and_missing_segments(self):
        with pytest.raises(ConfigError, match="unknown loss kind"):
            contrast("xx", EYE2, EYE2, SEG2, SUM_CFG)
        for kind in ("ag", "ep"):
            with pytest.raises(ConfigError, match="segment assignment"):
                contrast(kind, EYE2, EYE2, None, SUM_CFG)
            with pytest.raises(ConfigError, match="segment assignment"):
                brute_force_loss(kind, EYE2, EYE2, None, SUM_CFG)

    def test_kind_names_are_exact(self):
        with pytest.raises(ValueError, match="PC"):
            count_pairs("PC", 4, 2, 2)
        with pytest.raises(ValueError, match="PC"):
            brute_force_loss("PC", EYE2, EYE2, cfg=SUM_CFG)
        with pytest.raises(ValueError, match="PC"):
            bench_loss("PC", [4], measure=False)

    @pytest.mark.parametrize("kind", ["pc", "ag", "cc", "ep"])
    def test_operands_checked_at_entry(self, kind):
        bad = EYE2.copy()
        bad[1, 0] = np.inf
        for f1, f2 in ((bad, EYE2), (EYE2, bad)):
            with pytest.raises(RangeError, match="non-finite"):
                contrast(kind, f1, f2, SEG2, SUM_CFG)
        with pytest.raises(ShapeError, match=r"\(2, 2\) vs \(2, 3\)"):
            contrast(kind, EYE2, np.zeros((2, 3)), SEG2, SUM_CFG)


class TestRowBlocks:
    """The kernels' row blocks, forced down to three rows so oracle-scale
    instances span several of them, still meet the oracle and the gradient
    checks."""

    @staticmethod
    def three_row_blocks(monkeypatch, n, row_len):
        monkeypatch.setattr(numcore, "_BLOCK_BYTES", 8 * row_len * 3)
        assert [b.stop - b.start for b in _row_blocks(n, row_len)][:2] == [3, 3]

    @pytest.mark.parametrize("kind", ["pc", "ag"])
    def test_oracle_across_blocks(self, kind, monkeypatch):
        rng = substream(815, 0)
        for _ in range(4):
            n = int(rng.integers(30, 65))
            m = int(rng.integers(3, 9))
            f1, f2, seg = random_instance(rng, n, 4, m)
            self.three_row_blocks(monkeypatch, n, n if kind == "pc" else m)
            for cfg in ORACLE_CONFIGS:
                got = evaluate(kind, f1, f2, seg, cfg).value
                want = oracle(kind, f1, f2, seg, cfg)
                assert rel_err(got, want) <= 1e-10, (kind, n, m, cfg)

    @pytest.mark.parametrize("kind", ["pc", "ag", "pc_sampled"])
    def test_gradients_across_blocks(self, kind, monkeypatch):
        rng = substream(816, 0)
        n, c, m, k = 16, 3, 4, 5
        f1, f2, seg = random_instance(rng, n, c, m)
        s = round(np.sqrt(n * (k + 1)))  # the subset's key rows
        self.three_row_blocks(monkeypatch, n, {"pc": n, "ag": m, "pc_sampled": s}[kind])
        for cfg in ORACLE_CONFIGS:
            if kind == "pc_sampled":
                cfg = LossConfig(**{**vars(cfg), "neg_sample_count": k})

            def run(a, b):
                return contrast(kind[:2], a, b, seg, cfg, substream(56, 0))

            out = run(f1, f2)
            num1 = central_diff(lambda x: run(x, f2).value, f1)
            num2 = central_diff(lambda x: run(f1, x).value, f2)
            assert rel_err(out.grad_f1, num1) <= 1e-5, (kind, cfg)
            assert rel_err(out.grad_f2, num2) <= 1e-5, (kind, cfg)


def shifted_reference(kind, f1, f2, seg, cfg):
    """The loss of a pair kind as a max-shifted log-sum-exp over its scores."""
    if kind == "cc":
        q, k, pos_col, normalize = f1.T, f2.T, np.arange(f1.shape[1]), cfg.normalize_channels
    else:
        q, k = f1, (f2 if kind == "pc" else _segment_mean(f2, seg))
        pos_col = np.arange(f1.shape[0]) if kind == "pc" else seg.segment_of
        normalize = cfg.normalize_rows
    if normalize:
        q, k = _unit_rows(q)[0], _unit_rows(k)[0]
    s = q @ k.T / cfg.tau
    rows = np.arange(len(pos_col))
    pos = s[rows, pos_col].copy()
    if kind == "cc":
        s = np.abs(s)
    s[rows, pos_col] = pos if cfg.include_positive_in_denominator else -np.inf
    hi = s.max(axis=1)
    terms = hi + np.log(np.exp(s - hi[:, None]).sum(axis=1)) - pos
    return terms.sum() if cfg.reduction == "sum" else terms.mean()


class TestScoreRange:
    """The core skips the row-max shift only while the caller's bound on the
    scores is below _NO_SHIFT_LIMIT. Raw rows of norm ~100 at tau = 1 and
    unit rows at tau = 1 / (2 * limit) have scores whose exp overflows, so
    they must take the shifted branch; unit rows with 1/tau just below the
    limit take the unshifted one and stay finite."""

    CASES = {
        "raw rows of norm ~100": (50.0, 1.0, False, True),
        "unit rows, tau below 1/limit": (1.0, 0.5 / _NO_SHIFT_LIMIT, True, True),
        "unit rows, 1/tau just below the limit": (1.0, 1.0 / (_NO_SHIFT_LIMIT - 1), True, False),
    }

    @staticmethod
    def bounds_seen(monkeypatch):
        seen = []
        core = losses._softmax_rows

        def spy(scores, pos_col, cfg, bound, anchors, first=0):
            seen.append(bound)
            return core(scores, pos_col, cfg, bound, anchors, first)

        monkeypatch.setattr(losses, "_softmax_rows", spy)
        return seen

    @classmethod
    def setting(cls, name, include_pos, rng, n, c, m):
        scale, tau, normalize, shifted = cls.CASES[name]
        f1, f2, seg = random_instance(rng, n, c, m)
        cfg = LossConfig(reduction="sum", tau=tau, normalize_rows=normalize,
                         normalize_channels=normalize,
                         include_positive_in_denominator=include_pos)
        return scale * f1, scale * f2, seg, cfg, shifted

    @pytest.mark.parametrize("include_pos", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_values_match_shifted_log_sum_exp(self, name, include_pos, monkeypatch):
        f1, f2, seg, cfg, shifted = self.setting(name, include_pos, substream(825, 0), 24, 4, 5)
        seen = self.bounds_seen(monkeypatch)
        for kind in PAIR_KINDS:
            got = contrast(kind, f1, f2, seg, cfg).value
            assert np.isfinite(got), (name, kind)
            assert rel_err(got, shifted_reference(kind, f1, f2, seg, cfg)) <= 1e-12, (name, kind)
        assert len(seen) == 3 and all((b >= _NO_SHIFT_LIMIT) == shifted for b in seen), seen

    @pytest.mark.parametrize("include_pos", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_gradients_match_central_differences(self, name, include_pos, monkeypatch):
        f1, f2, seg, cfg, shifted = self.setting(name, include_pos, substream(826, 0), 6, 3, 3)
        seen = self.bounds_seen(monkeypatch)
        for kind, k in (("pc", None), ("pc", 2), ("ag", None), ("cc", None)):
            run_cfg = LossConfig(**{**vars(cfg), "neg_sample_count": k})

            def run(a, b):
                return contrast(kind, a, b, seg, run_cfg, substream(58, 0))

            out = run(f1, f2)
            assert np.all(np.isfinite(out.grad_f1)) and np.all(np.isfinite(out.grad_f2))
            num1 = central_diff(lambda x: run(x, f2).value, f1)
            num2 = central_diff(lambda x: run(f1, x).value, f2)
            assert rel_err(out.grad_f1, num1) <= 1e-5, (name, kind, k)
            assert rel_err(out.grad_f2, num2) <= 1e-5, (name, kind, k)
        assert all((b >= _NO_SHIFT_LIMIT) == shifted for b in seen), seen


class TestSampling:
    def test_subset_is_one_sorted_draw(self):
        # the random stream is part of the determinism contract: one choice
        # call of s = round(sqrt(n (k + 1))) points, at every size, and the
        # generator left where that call leaves it
        sizes = [(n, k) for n in (3, 4, 5, 8, 13, 40, 300)
                 for k in sorted({1, 2, (n - 1) // 2, n - 3, n - 2}) if 1 <= k < n - 1]
        # and the sizes that run: a desk scene at loss.neg_samples = 31, and
        # the sampled pc case of the kernels_large workload
        for n, k in sizes + [(1024, 31), (4000, 64)]:
            s = round(np.sqrt(n * (k + 1)))
            assert 2 <= s <= n - 1
            for seed in range(3):
                ours, theirs = substream(820, n, k, seed), substream(820, n, k, seed)
                np.testing.assert_array_equal(
                    _point_subset(n, k, ours), np.sort(theirs.choice(n, s, replace=False,
                                                                     shuffle=False))
                )
                assert ours.random() == theirs.random()
        assert _point_subset(1024, 31, substream(0)).size == 181
        assert _point_subset(4000, 64, substream(0)).size == 510

    def test_sampler_draws_distinct_in_range_negatives(self):
        # each subset point's negatives are the other points of the subset
        for n, k in ((3, 1), (10, 3), (10, 8), (200, 64)):
            picks = _point_subset(n, k, substream(817, n, k))
            assert picks.shape == (round(np.sqrt(n * (k + 1))),)
            assert np.all((picks >= 0) & (picks < n))
            assert np.all(np.diff(picks) > 0)

    def test_sampler_marginals_are_uniform(self):
        n, k, streams = 6, 2, 3000
        s = round(np.sqrt(n * (k + 1)))  # 4 of the 6 points
        counts = np.zeros(n)
        for i in range(streams):
            counts[_point_subset(n, k, substream(818, i))] += 1
        p = s / n
        sd = np.sqrt(streams * p * (1 - p))
        assert np.all(np.abs(counts - streams * p) <= 5 * sd)

    def test_sampled_loss_is_full_loss_on_its_subset(self, monkeypatch):
        """Bit for bit the full loss on the drawn rows, with zero gradient
        rows elsewhere; the oracle on those rows; and s * s scored pairs."""
        f1, f2, _ = random_instance(substream(819, 0), 40, 4, 2)
        scored = []
        core = losses._softmax_rows

        def spy(scores, *args):
            scored.append(scores.size)
            return core(scores, *args)

        monkeypatch.setattr(losses, "_softmax_rows", spy)
        for cfg in (LossConfig(reduction="mean", neg_sample_count=4),
                    LossConfig(reduction="sum", neg_sample_count=7, tau=0.5,
                               include_positive_in_denominator=True),
                    LossConfig(reduction="sum", neg_sample_count=1, normalize_rows=False)):
            idx = _point_subset(40, cfg.neg_sample_count, substream(57, 0))
            full = point_infonce(f1[idx], f2[idx], LossConfig(**{**vars(cfg),
                                                                 "neg_sample_count": None}))
            scored.clear()
            got = point_infonce(f1, f2, cfg, substream(57, 0))
            assert got.value == full.value and got.terms == {"pc": got.value}
            for grad, sub in ((got.grad_f1, full.grad_f1), (got.grad_f2, full.grad_f2)):
                np.testing.assert_array_equal(grad[idx], sub)
                assert not np.delete(grad, idx, axis=0).any()
            want = brute_force_loss("pc", f1[idx], f2[idx], cfg=cfg)
            assert rel_err(got.value, want) <= 1e-10
            assert sum(scored) == sum(count_pairs("pc", idx.size, 1, 4))

    def test_oversampling_uses_all_negatives_bitwise(self):
        rng = substream(809, 0)
        f1, f2, _ = random_instance(rng, 7, 3, 2)
        full = point_infonce(f1, f2, LossConfig(reduction="mean"))
        for k in (6, 7, 100):
            stream = substream(1, 1)
            sampled = point_infonce(
                f1, f2, LossConfig(reduction="mean", neg_sample_count=k), stream
            )
            assert sampled.value == full.value
            np.testing.assert_array_equal(sampled.grad_f1, full.grad_f1)
            assert stream.random() == substream(1, 1).random()  # nothing was drawn

    def test_sampling_requires_stream(self):
        rng = substream(810, 0)
        f1, f2, _ = random_instance(rng, 10, 3, 2)
        with pytest.raises(ConfigError, match="negative sampling requires a random stream"):
            point_infonce(f1, f2, LossConfig(neg_sample_count=2))

    def test_sampling_deterministic_per_stream(self):
        rng = substream(811, 0)
        f1, f2, _ = random_instance(rng, 12, 3, 2)
        cfg = LossConfig(reduction="mean", neg_sample_count=4)
        a = point_infonce(f1, f2, cfg, substream(3, 0))
        b = point_infonce(f1, f2, cfg, substream(3, 0))
        assert a.value == b.value


class TestPairCounting:
    def test_formulas(self):
        assert count_pairs("pc", 100, 1, 1) == (100, 9900)
        assert count_pairs("ag", 100, 10, 1) == (100, 900)
        assert count_pairs("cc", 1, 1, 32) == (32, 992)

    def test_segment_pairs_need_a_possible_partition(self):
        assert count_pairs("ag", 16, 16, 1) == (16, 240)
        with pytest.raises(PartitionError, match="cannot split 16 points into 17 segments"):
            count_pairs("ag", 16, 17, 1)
        # the other schemes do not read m
        assert count_pairs("pc", 4, 32, 2) == (4, 12)
        assert count_pairs("cc", 4, 32, 2) == (2, 2)

    @pytest.mark.parametrize("kind", ["pc", "ag", "cc"])
    def test_oracle_counter_matches_count_pairs(self, kind):
        rng = substream(812, 0)
        for include_pos in (False, True):
            n, c, m = 11, 5, 4
            f1, f2, seg = random_instance(rng, n, c, m)
            pos, neg = count_pairs(kind, n, m, c)
            for symmetric in (False, True):
                counter = EvalCounter()
                cfg = LossConfig(reduction="sum", include_positive_in_denominator=include_pos,
                                 symmetric_ag=symmetric)
                brute_force_loss(kind, f1, f2, seg, cfg, counter)
                directions = 2 if kind == "ag" and symmetric else 1
                assert counter.count == directions * (pos + neg)

    def test_named_errors(self):
        for sizes in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(RangeError, match="sizes must be >= 1"):
                count_pairs("pc", *sizes)
        for sizes, message in (((8.5, 1, 32), "n must be an integer, got 8.5"),
                               ((8, 2.5, 32), "m must be an integer, got 2.5"),
                               ((8, 1, 32.0), "c must be an integer, got 32.0")):
            with pytest.raises(RangeError, match=f"^{message}$"):
                count_pairs("ag", *sizes)
        with pytest.raises(ConfigError, match="unknown pair scheme 'ep'"):
            count_pairs("ep", 4, 2, 2)


class TestKindTable:
    EVALUATORS = {"pc": "point_infonce", "ag": "ag_contrast", "cc": "channel_contrast",
                  "ep": "ep_contrast"}

    def test_every_kind_has_one_evaluator_and_pair_kinds_have_formulas(self):
        assert set(self.EVALUATORS) == set(KINDS)
        assert PAIR_KINDS == ("pc", "ag", "cc")
        assert [name for name, spec in KINDS.items() if spec.segmented] == ["ag", "ep"]
        assert [name for name, spec in KINDS.items() if spec.points] == ["pc", "ag", "ep"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_contrast_calls_the_kinds_evaluator_once(self, monkeypatch, kind):
        """Through the module-level name, so a wrapper installed there sees
        the call; "ep" evaluates both of its terms without the other two."""
        calls = {}
        for name in self.EVALUATORS.values():
            def counted(*args, _name=name, _fn=getattr(losses, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(losses, name, counted)
        f1, f2, seg = random_instance(substream(813, 0), 8, 3, 2)
        out = contrast(kind, f1, f2, seg, SUM_CFG)
        assert calls == {self.EVALUATORS[kind]: 1}
        monkeypatch.undo()
        assert out.value == contrast(kind, f1, f2, seg, SUM_CFG).value

    def test_oracle_rejects_views_of_different_shapes(self):
        f1, f2 = np.ones((4, 2)), np.ones((4, 3))
        with pytest.raises(ShapeError, match=r"\(4, 2\) vs \(4, 3\)"):
            point_infonce(f1, f2, SUM_CFG)
        for kind in KINDS:
            with pytest.raises(ShapeError, match=r"\(4, 2\) vs \(4, 3\)"):
                brute_force_loss(kind, f1, f2, SEG2, SUM_CFG)

    def test_oracle_checks_segment_coverage(self):
        f1, f2, _ = random_instance(substream(814, 0), 4, 3, 2)
        three = SegmentAssignment(np.array([0, 1, 1]), 2)
        for kind in ("ag", "ep"):
            with pytest.raises(ShapeError, match="covers 3 points, embedding has 4 rows"):
                contrast(kind, f1, f2, three, SUM_CFG)
            with pytest.raises(ShapeError, match="covers 3 points, embedding has 4 rows"):
                brute_force_loss(kind, f1, f2, three, SUM_CFG)

    def test_oracle_caps_m_for_segmented_kinds_only(self):
        f1, f2, seg = random_instance(substream(815, 0), 70, 2, 65)
        for kind in ("pc", "cc"):
            got = contrast(kind, f1, f2, seg, SUM_CFG).value
            assert rel_err(got, brute_force_loss(kind, f1, f2, seg, SUM_CFG)) <= 1e-10
        for kind in ("ag", "ep"):
            with pytest.raises(RangeError, match="M=65"):
                brute_force_loss(kind, f1, f2, seg, SUM_CFG)

    def test_ep_oracle_skips_the_channel_term_at_lam_zero(self):
        f1, f2, seg = random_instance(substream(816, 0), 6, 1, 2)
        cfg = LossConfig(reduction="sum", lam=0.0)
        counter = EvalCounter()
        want = brute_force_loss("ep", f1, f2, seg, cfg, counter)
        assert rel_err(ep_contrast(f1, f2, seg, cfg).value, want) <= 1e-10
        assert want == brute_force_loss("ag", f1, f2, seg, cfg)
        assert counter.count == sum(count_pairs("ag", 6, 2, 1))
        with pytest.raises(EmptyNegativeSetError):
            brute_force_loss("ep", f1, f2, seg, LossConfig(lam=0.1))


class TestMemory:
    """The kernels carry one score buffer, or one row block of it: tracemalloc's
    peak stays within twice the accounted bytes (8 per scored similarity),
    and within them once the scores fill several blocks. The channel loss,
    whose C x C scores are negligible, stays within its two N x C gradients
    and a cache-sized block. The
    k-means that makes the segments stays within a few N x 6 feature copies
    and one block."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_point_loss_peak(self):
        rng = substream(813, 0)
        f1, f2, _ = random_instance(rng, 2048, 32, 2)
        peak = self.peak_bytes(lambda: point_infonce(f1, f2, LossConfig()))
        assert peak <= 2 * accounted_bytes("pc", 2048, 1, 32)

    def test_segment_loss_peak(self):
        rng = substream(814, 0)
        f1, f2, seg = random_instance(rng, 4096, 32, 512)
        peak = self.peak_bytes(lambda: ag_contrast(f1, f2, seg, LossConfig()))
        assert peak <= 2 * accounted_bytes("ag", 4096, 512, 32)

    def test_blocked_segment_loss_peak_within_accounting(self):
        rng = substream(820, 0)
        f1, f2, seg = random_instance(rng, 8192, 32, 1024)
        accounted = accounted_bytes("ag", 8192, 1024, 32)
        assert accounted >= 8 * numcore._BLOCK_BYTES
        peak = self.peak_bytes(lambda: ag_contrast(f1, f2, seg, LossConfig()))
        assert peak <= accounted

    def test_channel_loss_peak(self):
        n, c = 65536, 32
        rng = substream(822, 0)
        f1, f2 = rng.normal(size=(n, c)), rng.normal(size=(n, c))
        peak = self.peak_bytes(lambda: channel_contrast(f1, f2, LossConfig()))
        assert peak <= 2 * n * c * 8 + (1 << 20)

    def test_kmeans_peak_within_features_and_blocks(self):
        # the superpoints feeding ag at the default segment count: the
        # assignment holds one row block of scores, never the N x M matrix
        n, m = 16384, 2000
        rng = substream(821, 0)
        cloud = PointCloud(rng.normal(size=(n, 3)), rng.uniform(0, 1, (n, 3)))
        cfg = KMeansConfig(target_segments=m, max_iters=2)
        peak = self.peak_bytes(lambda: kmeans_segments(cloud, cfg))
        assert peak <= 4 * n * 6 * 8 + 2 * numcore._ASSIGN_BLOCK_BYTES
