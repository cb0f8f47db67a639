"""Tests for repro.stats.distributions, cross-checked against scipy."""

import math

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    binom_cdf,
    binom_logpmf,
    binom_pmf,
    binom_ppf,
    binom_sf,
    norm_cdf,
    norm_pdf,
    norm_ppf,
    norm_sf,
)


class TestNormal:
    @pytest.mark.parametrize("x", [-8.0, -2.5, -1.0, 0.0, 0.3, 1.96, 5.0, 8.0])
    def test_cdf_matches_scipy(self, x):
        assert norm_cdf(x) == pytest.approx(sps.norm.cdf(x), rel=1e-12)

    @pytest.mark.parametrize("x", [-8.0, 0.0, 3.0])
    def test_sf_matches_scipy(self, x):
        assert norm_sf(x) == pytest.approx(sps.norm.sf(x), rel=1e-12)

    @pytest.mark.parametrize("x", [-3.0, 0.0, 1.5])
    def test_pdf_matches_scipy(self, x):
        assert norm_pdf(x) == pytest.approx(sps.norm.pdf(x), rel=1e-12)

    @pytest.mark.parametrize("q", [1e-10, 0.001, 0.025, 0.5, 0.975, 0.999, 1 - 1e-10])
    def test_ppf_matches_scipy(self, q):
        assert norm_ppf(q) == pytest.approx(sps.norm.ppf(q), rel=1e-9, abs=1e-9)

    def test_ppf_extremes(self):
        assert norm_ppf(0.0) == float("-inf")
        assert norm_ppf(1.0) == float("inf")
        with pytest.raises(ValueError):
            norm_ppf(-0.1)

    def test_location_scale(self):
        assert norm_cdf(12.0, mean=10.0, std=2.0) == pytest.approx(norm_cdf(1.0))
        assert norm_ppf(0.5, mean=7.0, std=3.0) == pytest.approx(7.0)

    def test_nonpositive_std_rejected(self):
        for fn in (norm_pdf, norm_cdf, norm_sf):
            with pytest.raises(ValueError):
                fn(0.0, std=0.0)
        with pytest.raises(ValueError):
            norm_ppf(0.5, std=-1.0)

    def test_deep_tail_accuracy(self):
        # erfc keeps relative accuracy far into the tail
        assert norm_sf(10.0) == pytest.approx(sps.norm.sf(10.0), rel=1e-10)

    @given(st.floats(-6, 6))
    @settings(max_examples=60)
    def test_cdf_sf_complement(self, x):
        assert norm_cdf(x) + norm_sf(x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=60)
    def test_ppf_inverts_cdf(self, q):
        assert norm_cdf(norm_ppf(q)) == pytest.approx(q, abs=1e-10)


class TestBinomial:
    @pytest.mark.parametrize(
        "k,n,p",
        [(0, 10, 0.3), (3, 10, 0.3), (10, 10, 0.3), (50, 100, 0.5), (2, 7, 0.9)],
    )
    def test_pmf_matches_scipy(self, k, n, p):
        assert binom_pmf(k, n, p) == pytest.approx(sps.binom.pmf(k, n, p), rel=1e-10)

    @pytest.mark.parametrize(
        "k,n,p", [(0, 10, 0.3), (3, 10, 0.3), (9, 10, 0.3), (60, 100, 0.5)]
    )
    def test_cdf_matches_scipy(self, k, n, p):
        assert binom_cdf(k, n, p) == pytest.approx(sps.binom.cdf(k, n, p), rel=1e-10)

    @pytest.mark.parametrize("k,n,p", [(3, 10, 0.3), (60, 100, 0.5)])
    def test_sf_matches_scipy(self, k, n, p):
        assert binom_sf(k, n, p) == pytest.approx(sps.binom.sf(k, n, p), rel=1e-10)

    @pytest.mark.parametrize(
        "q,n,p", [(0.05, 100, 0.4), (0.5, 100, 0.4), (0.9, 100, 0.4), (0.01, 10, 0.5)]
    )
    def test_ppf_matches_scipy(self, q, n, p):
        assert binom_ppf(q, n, p) == int(sps.binom.ppf(q, n, p))

    def test_pmf_outside_support(self):
        assert binom_pmf(-1, 10, 0.5) == 0.0
        assert binom_pmf(11, 10, 0.5) == 0.0
        assert binom_logpmf(-1, 10, 0.5) == float("-inf")

    def test_degenerate_p(self):
        assert binom_pmf(0, 5, 0.0) == 1.0
        assert binom_pmf(5, 5, 1.0) == 1.0
        assert binom_cdf(4, 5, 1.0) == 0.0
        assert binom_cdf(5, 5, 0.0) == 1.0

    def test_cdf_extremes(self):
        assert binom_cdf(-1, 10, 0.5) == 0.0
        assert binom_cdf(10, 10, 0.5) == 1.0
        assert binom_sf(-1, 10, 0.5) == 1.0
        assert binom_sf(10, 10, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            binom_pmf(0, -1, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(0, 10, 1.5)
        with pytest.raises(TypeError):
            binom_pmf(0.5, 10, 0.5)
        with pytest.raises(TypeError):
            binom_cdf(3.0, 10, 0.5)  # whole floats are still not counts
        with pytest.raises(ValueError):
            binom_ppf(-0.1, 10, 0.5)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, bool, int])
    def test_numpy_integer_counts_accepted(self, integer):
        k = integer(1)
        assert binom_pmf(k, 10, 0.3) == binom_pmf(1, 10, 0.3)
        assert binom_logpmf(k, 10, 0.3) == binom_logpmf(1, 10, 0.3)
        assert binom_cdf(k, 10, 0.3) == binom_cdf(1, 10, 0.3)
        assert binom_sf(k, 10, 0.3) == binom_sf(1, 10, 0.3)
        assert type(binom_cdf(k, 10, 0.3)) is float

    def test_ppf_zero_quantile(self):
        assert binom_ppf(0.0, 10, 0.5) == 0

    def test_ppf_one_quantile(self):
        assert binom_ppf(1.0, 10, 0.5) == 10

    @given(
        st.integers(0, 60),
        st.integers(1, 60),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=80)
    def test_cdf_sf_complement(self, k, n, p):
        k = min(k, n)
        assert binom_cdf(k, n, p) + binom_sf(k, n, p) == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(1, 50), st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_pmf_sums_to_one(self, n, p):
        total = sum(binom_pmf(k, n, p) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(1, 40), st.floats(0.05, 0.95), st.floats(0.01, 0.99))
    @settings(max_examples=60)
    def test_ppf_is_smallest_k_reaching_quantile(self, n, p, q):
        k = binom_ppf(q, n, p)
        assert binom_cdf(k, n, p) >= q - 1e-12
        if k > 0:
            assert binom_cdf(k - 1, n, p) < q + 1e-12
