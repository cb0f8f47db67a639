"""The FA*IR widget measure: audit every prefix of the top-k.

The verdict follows [14]: a ranking passes when the protected count in
every prefix ``i <= k`` reaches the adjusted mtable entry ``m(i)``.
The p-value reported on the label is the smallest per-prefix binomial
CDF — how deep the worst prefix sits in the null's lower tail — which
is compared against the *adjusted* significance so the verdict and the
p-value always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FairnessConfigError
from repro.fairness.base import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    FairnessMeasure,
    FairnessResult,
    ProtectedGroup,
)
from repro.fairness.fair_star.adjustment import adjust_alpha
from repro.fairness.fair_star.mtable import minimum_protected_table, prefix_cdf

__all__ = ["FairStarAuditResult", "FairStarMeasure"]


@dataclass(frozen=True)
class FairStarAuditResult:
    """Full prefix-by-prefix audit trail for the detailed widget view."""

    k: int
    p: float
    alpha: float
    adjusted_alpha: float
    prefix_counts: tuple[int, ...]
    required_counts: tuple[int, ...]
    failed_prefixes: tuple[int, ...]
    min_prefix_cdf: float
    worst_prefix: int

    @property
    def passes(self) -> bool:
        """True when no prefix fell short of its requirement."""
        return not self.failed_prefixes

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for serialization."""
        return {
            "k": self.k,
            "p": self.p,
            "alpha": self.alpha,
            "adjusted_alpha": self.adjusted_alpha,
            "prefix_counts": list(self.prefix_counts),
            "required_counts": list(self.required_counts),
            "failed_prefixes": list(self.failed_prefixes),
            "min_prefix_cdf": self.min_prefix_cdf,
            "worst_prefix": self.worst_prefix,
            "passes": self.passes,
        }


def audit_prefixes(
    labels: np.ndarray, p: float, k: int, alpha: float, adjust: bool = True
) -> FairStarAuditResult:
    """Run the ranked group fairness test on a protected label vector.

    Parameters
    ----------
    labels:
        Boolean membership vector in rank order (at least ``k`` long).
    p:
        Protected proportion defining the null hypothesis.
    k:
        How many prefixes to audit.
    alpha:
        Target overall significance.
    adjust:
        Apply the multiple-testing correction of [14].  ``False`` gives
        the naive per-prefix test (kept for the A2 ablation benchmark).
    """
    arr = np.asarray(labels, dtype=bool)
    if arr.ndim != 1 or arr.size < k:
        raise FairnessConfigError(
            f"need at least k={k} ranked labels, got {arr.size}"
        )
    adjusted = adjust_alpha(k, p, alpha) if adjust else alpha
    if adjusted > 0.0:
        mtable = minimum_protected_table(k, p, adjusted)
    else:
        mtable = np.zeros(k, dtype=np.int64)  # adjustment degenerated: never reject
    counts = np.cumsum(arr[:k]).astype(np.int64)
    failed = tuple(int(i + 1) for i in range(k) if counts[i] < mtable[i])
    prefix_cdfs = [prefix_cdf(int(counts[i]), i + 1, p) for i in range(k)]
    worst = int(np.argmin(prefix_cdfs)) + 1
    return FairStarAuditResult(
        k=k,
        p=p,
        alpha=alpha,
        adjusted_alpha=float(adjusted),
        prefix_counts=tuple(int(c) for c in counts),
        required_counts=tuple(int(m) for m in mtable),
        failed_prefixes=failed,
        min_prefix_cdf=float(min(prefix_cdfs)),
        worst_prefix=worst,
    )


class FairStarMeasure(FairnessMeasure):
    """FA*IR ranked group fairness as a label measure.

    Parameters
    ----------
    k:
        Top-k length to audit (clamped to the ranking size at audit
        time, mirroring the widget's top-10 default).
    alpha:
        Target overall significance.
    adjust:
        Apply the multiple-testing correction (on by default; turning
        it off reproduces the naive variant the A2 benchmark measures).
    p:
        Protected proportion for the null.  ``None`` (default) uses the
        group's share of the audited ranking, which is how the demo
        derives it from the loaded dataset.
    """

    name = "FA*IR"

    def __init__(
        self,
        k: int = DEFAULT_TOP_K,
        alpha: float = DEFAULT_ALPHA,
        adjust: bool = True,
        p: float | None = None,
    ):
        if k < 1:
            raise FairnessConfigError(f"k must be >= 1, got {k}")
        if not 0.0 < alpha < 1.0:
            raise FairnessConfigError(f"alpha must be inside (0, 1), got {alpha}")
        if p is not None and not 0.0 < p < 1.0:
            raise FairnessConfigError(f"p must be inside (0, 1), got {p}")
        self._k = k
        self._alpha = alpha
        self._adjust = adjust
        self._p = p

    @property
    def k(self) -> int:
        """The audited prefix length."""
        return self._k

    @property
    def alpha(self) -> float:
        """The target overall significance."""
        return self._alpha

    def audit(self, group: ProtectedGroup) -> FairnessResult:
        """Audit the group's top-k prefixes; see the module docstring."""
        k = min(self._k, group.size)
        p = self._p if self._p is not None else group.proportion
        audit = audit_prefixes(group.mask, p=p, k=k, alpha=self._alpha, adjust=self._adjust)
        return FairnessResult(
            measure=self.name,
            group_label=group.label(),
            fair=audit.passes,
            p_value=audit.min_prefix_cdf,
            alpha=audit.adjusted_alpha,
            details=audit.as_dict(),
        )
