"""FA*IR's multiple-testing correction (model adjustment).

Ranked group fairness tests *every* prefix of the top-k, so a naive
per-prefix significance ``alpha`` makes the overall test reject far too
often: a perfectly fair ranking only has to dip below the threshold at
one of k chances.  [14] fixes this by finding the *adjusted*
significance ``alpha_c`` whose overall failure probability equals the
target ``alpha``.

:func:`compute_fail_probability` evaluates the overall failure
probability exactly with a dynamic program over prefix states, and
:func:`adjust_alpha` inverts it by bisection.  The A2 benchmark
measures the realized type-I error with and without this correction.

Cost.  A bisection takes ~25 steps, but the failure probability is a
step function of the per-prefix level: it depends on the level only
through the mtable, and one adjustment meets only about ten distinct
mtables.  So each step builds its mtable from the shared CDF
memo (:func:`~repro.fairness.fair_star.mtable.prefix_cdf`) and runs the
dynamic program only for an mtable it has not seen; the result for an
mtable is memoised (bounded, thread-safe) by its bytes and ``p``.  Both
memos return exactly what a fresh computation returns, and the
bisection makes the same comparisons in the same order, so
``adjust_alpha`` returns the same float as the per-call computation.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import FairnessConfigError
from repro.fairness.fair_star.mtable import minimum_protected_table

__all__ = ["fail_probability_of_mtable", "compute_fail_probability", "adjust_alpha"]

# Bound on memoised dynamic-program results; one adjustment needs ~10,
# a sweep over several k and groups a few dozen.
_FAIL_MEMO_SIZE = 256


def fail_probability_of_mtable(mtable: np.ndarray, p: float) -> float:
    """P[a Bernoulli(p) ranking violates ``mtable`` at some prefix].

    Exact dynamic program: ``state[c]`` is the probability of having
    ``c`` protected items after the current prefix *and* having passed
    every mtable entry so far.  Each step convolves with one Bernoulli
    draw and zeroes the states below the next requirement; the zeroed
    mass is exactly the newly-failing probability.
    """
    if not 0.0 < p < 1.0:
        raise FairnessConfigError(f"proportion p must be inside (0, 1), got {p}")
    m = np.asarray(mtable, dtype=np.int64)
    if m.ndim != 1 or m.size == 0:
        raise FairnessConfigError("mtable must be a non-empty 1-d array")
    k = m.size
    state = np.zeros(k + 1, dtype=np.float64)
    state[0] = 1.0
    survived = np.float64(1.0)
    for i in range(1, k + 1):
        new_state = np.zeros(k + 1, dtype=np.float64)
        new_state[1:] = state[:-1] * p  # protected item drawn
        new_state[: i] += state[: i] * (1.0 - p)  # non-protected item drawn
        required = int(m[i - 1])
        if required > 0:
            new_state[:required] = 0.0
        state = new_state
        survived = state.sum()
    return float(max(0.0, 1.0 - survived))


def compute_fail_probability(k: int, p: float, alpha: float) -> float:
    """Overall probability that a fair ranking fails the per-prefix test.

    Builds the mtable for per-prefix significance ``alpha`` and runs the
    exact DP.  This is the quantity the adjustment drives down to the
    target significance.  The DP runs once per distinct ``(mtable, p)``.
    """
    mtable = minimum_protected_table(k, p, alpha)
    return _memo_fail_probability(mtable.tobytes(), p)


@functools.lru_cache(maxsize=_FAIL_MEMO_SIZE)
def _memo_fail_probability(mtable_bytes: bytes, p: float) -> float:
    return fail_probability_of_mtable(np.frombuffer(mtable_bytes, dtype=np.int64), p)


def adjust_alpha(
    k: int,
    p: float,
    alpha: float,
    tolerance: float = 1e-8,
    max_iterations: int = 64,
) -> float:
    """The adjusted per-prefix significance ``alpha_c``.

    Finds (by bisection) the largest per-prefix level whose overall
    failure probability does not exceed ``alpha``.  The failure
    probability is a step function of the per-prefix level (it only
    changes when the mtable changes), so the result is conservative:
    ``compute_fail_probability(k, p, adjust_alpha(k, p, alpha)) <= alpha``.

    Parameters
    ----------
    k, p, alpha:
        Prefix length, protected proportion, target overall significance.
    tolerance:
        Bisection interval width at which to stop.
    max_iterations:
        Hard cap on bisection steps (64 is far beyond float precision).
    """
    if not 0.0 < alpha < 1.0:
        raise FairnessConfigError(f"alpha must be inside (0, 1), got {alpha}")
    if compute_fail_probability(k, p, alpha) <= alpha:
        # no correction needed (small k / extreme p can be under-powered)
        return alpha
    lo, hi = 0.0, alpha  # fail prob at lo=0 is 0 (mtable all zeros)
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if mid == 0.0:
            break
        if compute_fail_probability(k, p, mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo
