import math

import numpy as np
import pytest
from scipy import special, stats as scipy_stats

from repbench.stats import (
    bin_scores,
    betainc_regularized,
    correlate,
    p_value_two_tailed,
    pearson_r,
    summarize,
)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [6, 4, 2]) == -1.0

    def test_known_value(self):
        r = pearson_r([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0])
        assert abs(r - 0.8) < 1e-12

    def test_matches_scipy_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(3, 60))
            x = rng.normal(0, rng.uniform(0.1, 50), n)
            y = rng.normal(0, rng.uniform(0.1, 50), n)
            ours = pearson_r(x, y)
            ref = scipy_stats.pearsonr(x, y).statistic
            assert abs(ours - ref) < 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = pearson_r(x, y)
        assert abs(pearson_r(3.0 * x + 7.0, 0.5 * y - 2.0) - base) < 1e-12

    def test_negation_flips_sign_exactly(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        assert pearson_r(x, -y) == -pearson_r(x, y)

    def test_clamped_to_unit_interval(self):
        # near-collinear data can overshoot 1 in floating point
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = 2.0 * x + 1e-15 * np.array([1.0, -1.0, 1.0, -1.0])
        assert abs(pearson_r(x, y)) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2, 3], [1, 2])

    def test_insufficient_data(self):
        assert pearson_r([1, 2], [3, 4]) is None
        assert pearson_r([], []) is None

    def test_degenerate_series(self):
        assert pearson_r([1, 1, 1], [1, 2, 3]) is None
        assert pearson_r([1, 2, 3], [5, 5, 5]) is None

    @pytest.mark.parametrize("value", [0.1, 0.2, 0.4, 0.7, 0.8])
    @pytest.mark.parametrize("n", [3, 6, 7])
    def test_constant_series_whose_mean_is_off(self, value, n):
        # np.mean([0.1] * 3) is 0.10000000000000002, so the centred sum of
        # squares of some constant series is not 0
        assert pearson_r([value] * n, range(n)) is None
        assert pearson_r(range(n), [value] * n) is None
        assert correlate([value] * n, range(n)) is None

    def test_underflowing_sums_of_squares(self):
        # each sum is about 1e-200, and their product underflows to 0
        assert pearson_r([0, 1e-100, 2e-100], [0, 1e-100, 3e-100]) is None

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2, np.nan], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson_r([1, 2, 3], [1, np.inf, 3])


class TestBetainc:
    def test_matches_scipy_fuzz(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            a = rng.uniform(0.3, 40)
            b = rng.uniform(0.3, 40)
            x = rng.uniform(0, 1)
            assert abs(betainc_regularized(a, b, x) - special.betainc(a, b, x)) < 1e-10

    def test_endpoints(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            a = rng.uniform(0.3, 20)
            b = rng.uniform(0.3, 20)
            x = rng.uniform(0, 1)
            total = betainc_regularized(a, b, x) + betainc_regularized(b, a, 1.0 - x)
            assert abs(total - 1.0) < 1e-10

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            assert abs(betainc_regularized(1.0, 1.0, x) - x) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            betainc_regularized(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            betainc_regularized(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            betainc_regularized(1.0, 1.0, 1.1)


class TestPValue:
    def test_matches_scipy_pearsonr(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            n = int(rng.integers(3, 50))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + rng.uniform(-1, 1) * x
            r = pearson_r(x, y)
            ref = scipy_stats.pearsonr(x, y).pvalue
            assert abs(p_value_two_tailed(r, n) - ref) < 1e-10

    def test_known_value_n5(self):
        # r = 0.8 with n = 5: t = 2*sqrt(3)/sqrt(2.25), p via I_x(1.5, 0.5)
        p = p_value_two_tailed(0.8, 5)
        assert abs(p - 0.10408803866182444) < 1e-12

    def test_extremes(self):
        assert p_value_two_tailed(1.0, 8) == 0.0
        assert p_value_two_tailed(-1.0, 8) == 0.0
        assert abs(p_value_two_tailed(0.0, 8) - 1.0) < 1e-12

    def test_monotone_in_abs_r(self):
        ps = [p_value_two_tailed(r, 10) for r in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert p_value_two_tailed(-0.6, 10) == p_value_two_tailed(0.6, 10)

    def test_monotone_in_n(self):
        ps = [p_value_two_tailed(0.7, n) for n in (3, 5, 9, 17, 33)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_domain_errors(self):
        assert p_value_two_tailed(0.5, 2) is None
        with pytest.raises(ValueError):
            p_value_two_tailed(1.5, 5)
        with pytest.raises(ValueError):
            p_value_two_tailed(np.nan, 5)


class TestCorrelate:
    def test_report_consistent_with_parts(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [2.0, 1.0, 4.0, 3.0, 5.0]
        cell = correlate(xs, ys)
        # the sequence report's cell, keys in the written order
        assert list(cell) == ["r", "p_value", "n"]
        assert cell["n"] == 5
        assert cell["r"] == pearson_r(xs, ys)
        assert cell["p_value"] == p_value_two_tailed(cell["r"], 5)

    def test_exact_fit_yields_zero_p(self):
        cell = correlate([1, 2, 3, 4, 5], [3, 5, 7, 9, 11])
        assert cell["r"] == 1.0
        assert cell["p_value"] == 0.0

    def test_undefined_is_none(self):
        assert correlate([1, 2], [3, 4]) is None
        assert correlate([1, 2, 3], [5, 5, 5]) is None


class TestSummarize:
    def test_sample_std_two_pass_oracle(self):
        rng = np.random.default_rng(37)
        values = list(rng.uniform(-5, 5, 48))
        mean, std = summarize(values)
        assert abs(mean - np.mean(values)) < 1e-12
        assert abs(std - np.std(values, ddof=1)) < 1e-12

    def test_single_value(self):
        mean, std = summarize([4.5])
        assert mean == 4.5
        assert std is None

    def test_empty(self):
        assert summarize([]) == (None, None)

    def test_simple_example(self):
        mean, std = summarize([2.0, 4.0, 6.0])
        assert mean == 4.0
        assert abs(std - 2.0) < 1e-12


class TestBinScores:
    def test_explicit_thresholds(self):
        scores = {"a": 0.95, "b": 0.5, "c": 0.05}
        out = bin_scores(scores, bins=(0.1, 0.4, 0.7))
        assert out == {"a": "++++", "b": "+++", "c": "+"}

    def test_equality_with_threshold_stays_low(self):
        # rating counts thresholds strictly below the score
        out = bin_scores({"a": 0.3, "b": 0.30000001}, bins=(0.3,))
        assert out == {"a": "+", "b": "++"}

    def test_no_thresholds_rate_everything_plus(self):
        out = bin_scores({"a": 0.0, "b": 0.7}, bins=())
        assert out == {"a": "+", "b": "+"}

    def test_preserves_insertion_order(self):
        out = bin_scores({"z": 0.5, "a": 0.6}, bins=(0.55,))
        assert list(out) == ["z", "a"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            bin_scores({"a": 0.5}, bins=(0.6, 0.4))
        with pytest.raises(ValueError):
            bin_scores({"a": 0.5}, bins=(0.0, 0.5))
        with pytest.raises(ValueError):
            bin_scores({"a": 0.5}, bins=(0.5, 1.0))

    def test_empty_scores(self):
        assert bin_scores({}, bins=()) == {}

    def test_nonfinite_score_rejected(self):
        with pytest.raises(ValueError):
            bin_scores({"a": math.nan}, bins=())
