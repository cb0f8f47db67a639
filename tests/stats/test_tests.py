"""Tests for repro.stats.tests, cross-checked against scipy/statsmodels math."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import binomial_test, one_proportion_ztest, two_proportion_ztest


class TestBinomialTest:
    @pytest.mark.parametrize(
        "successes,trials,p",
        [(3, 20, 0.5), (0, 10, 0.3), (10, 10, 0.3), (7, 15, 0.4), (50, 100, 0.5)],
    )
    def test_two_sided_matches_scipy(self, successes, trials, p):
        ours = binomial_test(successes, trials, p).p_value
        theirs = sps.binomtest(successes, trials, p).pvalue
        assert ours == pytest.approx(theirs, rel=1e-9)

    @pytest.mark.parametrize("alternative", ["less", "greater"])
    def test_one_sided_matches_scipy(self, alternative):
        ours = binomial_test(3, 20, 0.5, alternative=alternative).p_value
        theirs = sps.binomtest(3, 20, 0.5, alternative=alternative).pvalue
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_large_trials_stay_exact(self):
        # the vectorized path: still matches scipy at 10^5 trials
        ours = binomial_test(49_000, 100_000, 0.5).p_value
        theirs = sps.binomtest(49_000, 100_000, 0.5).pvalue
        assert ours == pytest.approx(theirs, rel=1e-6)

    @pytest.mark.parametrize("alternative", ["less", "greater", "two-sided"])
    def test_numpy_integer_counts_accepted(self, alternative):
        # counts often come straight out of numpy (np.cumsum, .sum())
        ours = binomial_test(np.int64(3), 10, 0.5, alternative)
        assert ours == binomial_test(3, 10, 0.5, alternative)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_test(5, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_test(-1, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_test(1, 3, 1.5)
        with pytest.raises(ValueError):
            binomial_test(1, 3, 0.5, alternative="both")

    def test_significant_helper(self):
        result = binomial_test(0, 30, 0.5)
        assert result.significant(0.05)
        with pytest.raises(ValueError):
            result.significant(0.0)

    def test_result_as_dict(self):
        d = binomial_test(3, 10, 0.5).as_dict()
        assert d["name"] == "exact binomial test"
        assert 0.0 <= d["p_value"] <= 1.0

    @given(st.integers(0, 40), st.integers(1, 40), st.floats(0.05, 0.95))
    @settings(max_examples=60)
    def test_p_value_in_unit_interval(self, successes, trials, p):
        successes = min(successes, trials)
        for alternative in ("two-sided", "less", "greater"):
            result = binomial_test(successes, trials, p, alternative=alternative)
            assert 0.0 <= result.p_value <= 1.0


class TestOneProportionZTest:
    def test_matches_hand_computation(self):
        # 2 of 10 vs p=0.5: z = (0.2-0.5)/sqrt(0.25/10)
        result = one_proportion_ztest(2, 10, 0.5)
        expected_z = (0.2 - 0.5) / (0.025) ** 0.5
        assert result.statistic == pytest.approx(expected_z)
        assert result.p_value == pytest.approx(2 * sps.norm.cdf(expected_z), rel=1e-12)

    def test_one_sided_less(self):
        result = one_proportion_ztest(2, 10, 0.5, alternative="less")
        assert result.p_value == pytest.approx(
            sps.norm.cdf(result.statistic), rel=1e-12
        )

    def test_exact_null_gives_pvalue_one(self):
        result = one_proportion_ztest(5, 10, 0.5)
        assert result.p_value == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_proportion_ztest(0, 0, 0.5)
        with pytest.raises(ValueError):
            one_proportion_ztest(1, 10, 0.0)
        with pytest.raises(ValueError):
            one_proportion_ztest(11, 10, 0.5)


class TestTwoProportionZTest:
    def test_matches_hand_computation(self):
        # top-k 1/10 vs rest 24/40
        result = two_proportion_ztest(1, 10, 24, 40)
        pooled = 25 / 50
        se = (pooled * (1 - pooled) * (1 / 10 + 1 / 40)) ** 0.5
        expected_z = (0.1 - 0.6) / se
        assert result.statistic == pytest.approx(expected_z)
        assert result.p_value == pytest.approx(
            2 * sps.norm.sf(abs(expected_z)), rel=1e-12
        )

    def test_identical_proportions_not_significant(self):
        result = two_proportion_ztest(5, 10, 20, 40)
        assert result.p_value == pytest.approx(1.0)

    def test_alternative_less(self):
        result = two_proportion_ztest(1, 10, 24, 40, alternative="less")
        assert result.p_value < two_proportion_ztest(1, 10, 24, 40).p_value

    def test_degenerate_pooled_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            two_proportion_ztest(0, 10, 0, 40)
        with pytest.raises(ValueError, match="degenerate"):
            two_proportion_ztest(10, 10, 40, 40)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_ztest(0, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_ztest(11, 10, 1, 10)

    @given(
        st.integers(0, 20), st.integers(1, 20), st.integers(0, 50), st.integers(1, 50)
    )
    @settings(max_examples=60)
    def test_p_value_in_unit_interval(self, sa, ta, sb, tb):
        sa, sb = min(sa, ta), min(sb, tb)
        pooled = (sa + sb) / (ta + tb)
        if pooled in (0.0, 1.0):
            return  # degenerate, rejected by design
        result = two_proportion_ztest(sa, ta, sb, tb)
        assert 0.0 <= result.p_value <= 1.0

    def test_symmetry_two_sided(self):
        a = two_proportion_ztest(1, 10, 24, 40).p_value
        b = two_proportion_ztest(24, 40, 1, 10).p_value
        assert a == pytest.approx(b)
