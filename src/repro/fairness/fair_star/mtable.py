"""The FA*IR mtable: minimum protected counts per prefix.

A prefix of size ``i`` with ``t`` protected items satisfies the *fair
representation condition* at significance ``alpha`` when the binomial
CDF ``F(t; i, p)`` exceeds ``alpha`` — i.e. ``t`` is not in the lower
``alpha`` tail of what a group-blind process would produce.  The mtable
``m(i)`` is the smallest passing ``t`` for each ``i`` from 1 to k; a
ranking satisfies *ranked group fairness* when every prefix count
reaches its mtable entry.

Every CDF value FA*IR needs goes through :func:`prefix_cdf`, one
bounded, thread-safe memo of exact ``binom_cdf(t, i, p)`` values shared
by the mtable, every bisection step of
:func:`~repro.fairness.fair_star.adjustment.adjust_alpha` and the
verifier's per-prefix p-values.  A bisection over the per-prefix level
revisits the same few hundred ``(t, i)`` cells dozens of times, and a
sweep of designs over one dataset repeats ``(i, p)``; the memo turns
those repeats into lookups.  It stores what the unchanged scalar
:func:`~repro.stats.distributions.binom_cdf` returned, so every
comparison against ``alpha`` — and with it every mtable — sees the same
floats as a fresh call would.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import FairnessConfigError
from repro.stats.distributions import binom_cdf

__all__ = ["prefix_cdf", "required_at", "minimum_protected_table"]

# Bound on memoised CDF values (a few hundred bytes each).  One k=100
# adjustment touches ~500 cells; least recently used ones are evicted.
_CDF_MEMO_SIZE = 1 << 15


@functools.lru_cache(maxsize=_CDF_MEMO_SIZE)
def prefix_cdf(t: int, i: int, p: float) -> float:
    """``binom_cdf(t, i, p)``, memoised: the CDF FA*IR tests prefix ``i`` on."""
    return binom_cdf(t, i, p)


def _validate(k: int, p: float, alpha: float) -> None:
    if k < 1:
        raise FairnessConfigError(f"prefix length k must be >= 1, got {k}")
    if not 0.0 < p < 1.0:
        raise FairnessConfigError(f"proportion p must be inside (0, 1), got {p}")
    if not 0.0 < alpha < 1.0:
        raise FairnessConfigError(f"alpha must be inside (0, 1), got {alpha}")


def required_at(i: int, p: float, alpha: float) -> int:
    """m(i): the minimum protected count a prefix of size ``i`` needs.

    The smallest integer ``t`` with ``binom_cdf(t, i, p) > alpha``
    (so observing ``t - 1`` or fewer would fall in the rejection tail).

    >>> required_at(10, 0.5, 0.1)  # doctest: +SKIP
    2
    """
    _validate(i, p, alpha)
    for t in range(0, i + 1):
        if prefix_cdf(t, i, p) > alpha:
            return t
    return i  # unreachable: cdf(i) == 1 > alpha


def minimum_protected_table(k: int, p: float, alpha: float) -> np.ndarray:
    """The mtable ``[m(1), ..., m(k)]`` as an int array (index 0 = prefix 1).

    Computed in one pass: ``m(i)`` is non-decreasing in ``i`` and grows
    by at most 1 per step, so each entry starts the CDF search where the
    previous one ended instead of from zero.  The CDF values come from
    the shared :func:`prefix_cdf` memo.
    """
    _validate(k, p, alpha)
    table = np.zeros(k, dtype=np.int64)
    current = 0
    for i in range(1, k + 1):
        # m(i) >= m(i-1): a longer prefix never needs fewer protected items
        while prefix_cdf(current, i, p) <= alpha:
            current += 1
        table[i - 1] = current
    return table
