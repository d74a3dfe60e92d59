"""Scaling-report arithmetic, exponent fits, and the byte budget."""

import numpy as np
import pytest

from epcontrast import bench_loss, count_pairs, fit_exponent
from epcontrast.bench import accounted_bytes
from epcontrast.errors import BudgetError, ConfigError, DomainError, RangeError


class TestFitExponent:
    def test_quadratic(self):
        sizes = [10, 20, 40, 80]
        assert fit_exponent(sizes, [s**2 for s in sizes]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_is_exactly_zero(self):
        assert fit_exponent([1, 2, 3, 4], [7.0, 7.0, 7.0, 7.0]) == 0.0

    def test_linear_with_noise(self):
        rng = np.random.default_rng(0)
        sizes = np.array([100, 200, 400, 800, 1600])
        noisy = sizes * (1.0 + rng.uniform(-0.01, 0.01, size=sizes.size))
        assert abs(fit_exponent(sizes, noisy) - 1.0) <= 0.05

    def test_rejects_non_positive_measurements(self):
        with pytest.raises(DomainError):
            fit_exponent([1, 2, 3, 4], [1.0, 2.0, 0.0, 4.0])

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            fit_exponent([1, 2, 3], [1.0, 2.0, 3.0])


class TestBenchLoss:
    def test_point_loss_counts_and_bytes_at_1000(self):
        report = bench_loss("pc", [1000, 2000, 4000, 8000], measure=False)
        row = report.rows[0]
        assert row.negatives == 999000
        assert row.accounted_bytes == 8_000_000  # 8 bytes per scored similarity

    def test_segment_loss_counts(self):
        report = bench_loss("ag", [1000, 2000, 4000, 8000], m=32, measure=False)
        assert report.rows[0].negatives == 31000

    def test_counts_match_pair_formulas_everywhere(self):
        for kind in ("pc", "ag", "cc"):
            report = bench_loss(kind, [1000, 2000, 4000, 8000], m=32, c=32, measure=False)
            for row in report.rows:
                pos, neg = count_pairs(kind, row.n, row.m, row.c)
                assert (row.positives, row.negatives) == (pos, neg)
                assert row.accounted_bytes == 8 * (pos + neg)

    def test_exponents(self):
        pc = bench_loss("pc", [1000, 2000, 4000, 8000], measure=False)
        ag = bench_loss("ag", [1000, 2000, 4000, 8000], m=32, measure=False)
        cc = bench_loss("cc", [1000, 2000, 4000, 8000], c=32, measure=False)
        assert abs(pc.pair_exponent - 2.0) <= 0.05
        assert abs(ag.pair_exponent - 1.0) <= 0.05
        assert abs(cc.pair_exponent - 0.0) <= 0.05
        assert abs(pc.byte_exponent - 2.0) <= 0.05
        assert abs(ag.byte_exponent - 1.0) <= 0.05
        assert abs(cc.byte_exponent - 0.0) <= 0.05

    def test_budget_error_names_offending_size(self):
        with pytest.raises(BudgetError, match="N=4000"):
            bench_loss("pc", [1000, 2000, 4000], m=32,
                       byte_budget=accounted_bytes("pc", 2000, 32, 32),
                       measure=False)

    def test_budget_allows_fitting_sizes(self):
        budget = accounted_bytes("ag", 8000, 32, 32)
        report = bench_loss("ag", [1000, 2000, 4000, 8000], m=32,
                            byte_budget=budget, measure=False)
        assert len(report.rows) == 4

    def test_measured_run_produces_times(self):
        report = bench_loss("cc", [64, 128, 256, 512], c=16, repeats=3, seed=1)
        assert all(r.wall_time_s > 0 for r in report.rows)

    def test_report_serialization(self):
        report = bench_loss("ag", [100, 200, 400, 800], m=8, measure=False)
        csv = report.csv_lines()
        assert csv[0].startswith("kind,n,m,c")
        assert len(csv) == 5
        assert any("exponent" in line for line in report.table_lines())

    def test_rejects_descending_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            bench_loss("pc", [200, 100], measure=False)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(sizes=[200, 100]), r"sizes must be a non-empty ascending list, got \[200, 100\]"),
        (dict(sizes=[100, 200], repeats=2, measure=True), "repeats must be >= 3, got 2"),
        (dict(sizes=[8], byte_budget=0), "byte budget must be positive, got 0"),
        (dict(sizes=[8], byte_budget=-1048576), "byte budget must be positive, got -1048576"),
        (dict(sizes=[8], seed=-1), "seed must be >= 0, got -1"),
    ])
    def test_bad_arguments_are_config_errors(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            bench_loss("pc", **{"measure": False, **kwargs})

    def test_sizes_that_are_not_integers_are_range_errors(self):
        with pytest.raises(RangeError, match="^m must be an integer, got 2.5$"):
            bench_loss("ag", [16, 32, 64, 128], m=2.5, measure=False)
        with pytest.raises(RangeError, match="^n must be an integer, got 8.5$"):
            accounted_bytes("pc", 8.5, 1, 32)

    def test_count_only_run_ignores_repeats(self):
        report = bench_loss("ag", [8], m=4, repeats=2, measure=False)
        assert [(r.n, r.wall_time_s) for r in report.rows] == [(8, 0.0)]
