"""Tests for repro.stats.correlation, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import kendall_tau, pearson_r, spearman_rho
from repro.stats.correlation import rankdata_average


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        assert pearson_r(x, y) == pytest.approx(sps.pearsonr(x, y).statistic, rel=1e-10)

    def test_constant_returns_zero(self):
        assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1], [1])
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, float("nan")])
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, 2, 3])


class TestRankData:
    def test_simple(self):
        assert rankdata_average([30, 10, 20]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_averaged(self):
        assert rankdata_average([1, 1, 2]).tolist() == [1.5, 1.5, 3.0]

    def test_matches_scipy(self, rng):
        x = rng.integers(0, 5, size=40).astype(float)
        np.testing.assert_allclose(rankdata_average(x), sps.rankdata(x))


def loop_rankdata_average(values):
    """The tie-group loop rankdata_average replaced, kept as its oracle."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i: j + 1]] = avg_rank
        i = j + 1
    return ranks


# few distinct values, so most draws are tie-heavy; NaN and both zeros
# are among them
TIE_HEAVY = st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0, float("nan"), float("inf")])


class TestRankDataMatchesLoop:
    @staticmethod
    def assert_same(values):
        expected = loop_rankdata_average(values)
        actual = rankdata_average(values)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected, equal_nan=True)

    @given(st.lists(TIE_HEAVY, max_size=40))
    @settings(max_examples=200)
    def test_tie_heavy(self, values):
        self.assert_same(values)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    @settings(max_examples=200)
    def test_any_floats(self, values):
        self.assert_same(values)

    @given(st.lists(st.integers(-3, 3), max_size=300))
    @settings(max_examples=50)
    def test_long_integer_ties(self, values):
        self.assert_same(values)

    @pytest.mark.parametrize(
        "values",
        [[], [7.0], [float("nan")], [0.0, -0.0], [-0.0, 0.0, -0.0],
         [float("nan")] * 3, [2.0] * 5],
        ids=["empty", "one", "nan", "zeros", "signed-zeros", "nans", "all-tied"],
    )
    def test_edge_cases(self, values):
        self.assert_same(values)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman_rho([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert spearman_rho(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, rel=1e-10
        )

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 4, size=50).astype(float)
        y = rng.integers(0, 4, size=50).astype(float)
        assert spearman_rho(x, y) == pytest.approx(
            sps.spearmanr(x, y).statistic, rel=1e-9
        )


class TestKendall:
    def test_identical_order(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_scipy(self, rng):
        x, y = rng.normal(size=40), rng.normal(size=40)
        assert kendall_tau(x, y) == pytest.approx(
            sps.kendalltau(x, y).statistic, rel=1e-10
        )

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 3, size=40).astype(float)
        y = rng.integers(0, 3, size=40).astype(float)
        assert kendall_tau(x, y) == pytest.approx(
            sps.kendalltau(x, y).statistic, rel=1e-9
        )

    def test_fully_tied_returns_zero(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=25))
    @settings(max_examples=40)
    def test_bounds_and_symmetry(self, xs):
        ys = list(reversed(xs))
        tau = kendall_tau(xs, ys)
        assert -1.0 <= tau <= 1.0
        assert kendall_tau(ys, xs) == pytest.approx(tau)

    @given(st.permutations(list(range(8))))
    @settings(max_examples=40)
    def test_permutation_matches_scipy(self, perm):
        base = list(range(8))
        assert kendall_tau(base, perm) == pytest.approx(
            sps.kendalltau(base, perm).statistic, rel=1e-10
        )
