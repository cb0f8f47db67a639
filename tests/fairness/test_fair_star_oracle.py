"""Independent oracles for FA*IR: scipy's binomial CDF and brute force.

The mtable is checked against ``scipy.stats.binom.cdf``; the exact
failure-probability dynamic program (and with it the adjusted alpha)
against enumerating every one of the 2^k protected/non-protected label
vectors of a top-k, which needs nothing but arithmetic.
"""

import itertools

import numpy as np
import pytest

from repro.fairness.fair_star.adjustment import adjust_alpha, fail_probability_of_mtable
from repro.fairness.fair_star.mtable import minimum_protected_table, prefix_cdf
from repro.stats.distributions import binom_cdf

# cells whose CDF lies this close to alpha may round to either side
BORDER = 1e-12


def brute_force_fail_probability(mtable, p: float) -> float:
    """Sum P(labels) over every label vector failing some prefix."""
    m = np.asarray(mtable)
    k = m.size
    vectors = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)
    counts = np.cumsum(vectors, axis=1)
    failing = (counts < m).any(axis=1)
    protected = vectors.sum(axis=1)
    weights = p ** protected * (1.0 - p) ** (k - protected)
    return float(weights[failing].sum())


@pytest.mark.parametrize("k", [10, 40, 100])
@pytest.mark.parametrize("p", [0.05, 0.19, 0.5, 0.81])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_mtable_matches_scipy_cdf(k, p, alpha):
    sps = pytest.importorskip("scipy.stats")
    table = minimum_protected_table(k, p, alpha)
    checked = 0
    for i in range(1, k + 1):
        cdf = sps.binom.cdf(np.arange(i + 1), i, p)
        if (np.abs(cdf - alpha) < BORDER).any():
            continue
        assert table[i - 1] == int(np.argmax(cdf > alpha)), (i, cdf)
        checked += 1
    assert checked >= k - 2


def test_prefix_cdf_is_binom_cdf():
    # the memo hands out exactly the scalar function's floats
    for i in (1, 7, 33, 100):
        for t in range(-1, i + 2):
            assert prefix_cdf(t, i, 0.37) == binom_cdf(t, i, 0.37)
            assert prefix_cdf(t, i, 0.37) == binom_cdf(t, i, 0.37)  # memo hit


@pytest.mark.parametrize("k", [1, 5, 10, 14])
@pytest.mark.parametrize("p", [0.19, 0.5, 0.81])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3])
def test_fail_probability_matches_enumeration(k, p, alpha):
    mtable = minimum_protected_table(k, p, alpha)
    assert fail_probability_of_mtable(mtable, p) == pytest.approx(
        brute_force_fail_probability(mtable, p), abs=1e-12
    )


def test_fail_probability_of_arbitrary_mtables(rng):
    # monotone tables the mtable builder never produces, unsatisfiable
    # ones (m(i) > i) included
    for _ in range(20):
        k = int(rng.integers(1, 13))
        mtable = np.cumsum(rng.integers(0, 2, size=k))
        p = float(rng.uniform(0.05, 0.95))
        assert fail_probability_of_mtable(mtable, p) == pytest.approx(
            brute_force_fail_probability(mtable, p), abs=1e-12
        )


@pytest.mark.parametrize("k", [8, 12, 14])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_adjusted_alpha_meets_target_by_enumeration(k, p):
    alpha = 0.1
    adjusted = adjust_alpha(k, p, alpha)
    mtable = minimum_protected_table(k, p, adjusted)
    assert brute_force_fail_probability(mtable, p) <= alpha + 1e-12
