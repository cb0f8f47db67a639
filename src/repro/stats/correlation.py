"""Correlation coefficients: Pearson, Spearman, Kendall.

The Ingredients widget ranks attributes by how strongly they associate
with the ranked outcome (paper §2.1); rank correlations are its default
importance estimator.  Kendall's tau-b is also the workhorse of the
rank-comparison utilities in :mod:`repro.ranking.compare`, which the
perturbation-based stability estimators build on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["pearson_r", "spearman_rho", "kendall_tau", "rankdata_average"]


def _paired_arrays(
    xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray, what: str
) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(
            f"{what} needs equal-length 1-d sequences, got {x.shape} and {y.shape}"
        )
    if x.size < 2:
        raise ValueError(f"{what} needs at least 2 observations, got {x.size}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError(f"{what} received NaN values; clean the data first")
    return x, y


def pearson_r(
    xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray
) -> float:
    """Pearson product-moment correlation in [-1, 1].

    Returns 0.0 when either variable is constant (no linear association
    can be measured), rather than raising — constant attribute columns
    are common in small top-k slices.
    """
    x, y = _paired_arrays(xs, ys, "pearson_r")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt((xc**2).sum() * (yc**2).sum()))
    if denom == 0.0:
        return 0.0
    r = float((xc * yc).sum() / denom)
    return max(-1.0, min(1.0, r))


def rankdata_average(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties broken by averaging (scipy's 'average').

    A tie group is a run of equal values in the stable sort order; the
    group spanning sorted positions ``i..j`` gets rank ``(i + j) / 2 + 1``
    (exact in floating point).  NaN equals nothing, so every NaN is a
    group of its own, ranked after all numbers in input order.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"rankdata expects a 1-d sequence, got shape {arr.shape}")
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts_group = np.empty(arr.size, dtype=bool)
    starts_group[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts_group[1:])
    first = np.flatnonzero(starts_group)
    last = np.append(first[1:], arr.size) - 1
    ranks = np.empty(arr.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman_rho(
    xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray
) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x, y = _paired_arrays(xs, ys, "spearman_rho")
    return pearson_r(rankdata_average(x), rankdata_average(y))


def kendall_tau(
    xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray
) -> float:
    """Kendall's tau-b, with the standard tie correction.

    O(n^2) pair enumeration — exact and fast enough for the attribute
    counts and top-k sizes labels deal with.  Returns 0.0 when either
    variable is fully tied.
    """
    x, y = _paired_arrays(xs, ys, "kendall_tau")
    n = x.size
    concordant = discordant = 0
    ties_x = ties_y = 0
    for i in range(n - 1):
        dx = x[i + 1:] - x[i]
        dy = y[i + 1:] - y[i]
        sign = np.sign(dx) * np.sign(dy)
        concordant += int((sign > 0).sum())
        discordant += int((sign < 0).sum())
        ties_x += int(((dx == 0) & (dy != 0)).sum())
        ties_y += int(((dy == 0) & (dx != 0)).sum())
    denom = float(
        np.sqrt(
            (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
        )
    )
    if denom == 0.0:
        return 0.0
    tau = (concordant - discordant) / denom
    return max(-1.0, min(1.0, tau))
