"""FA*IR: the fair top-k ranking test and algorithm of Zehlike et al. [14].

FA*IR "quantif[ies] fairness in every prefix of a top-k list"
(paper §2.3) using the generative model of [13] as its null hypothesis:
in a group-blind ranking the number of protected items in a prefix of
size ``i`` is Binomial(i, p).  The machinery:

- :mod:`~repro.fairness.fair_star.mtable` — the minimum number of
  protected items each prefix needs to pass at significance ``alpha``,
  and the memo of exact binomial CDF values the whole package shares;
- :mod:`~repro.fairness.fair_star.adjustment` — the multiple-testing
  correction: the exact probability that a fair ranking fails *some*
  prefix, and the binary search for the adjusted significance;
- :mod:`~repro.fairness.fair_star.verifier` — the widget measure: audit
  a ranking's prefixes and report the verdict with a p-value;
- :mod:`~repro.fairness.fair_star.rerank` — the constructive half of
  [14]: greedily re-rank candidates so every prefix passes.
"""

from repro.fairness.fair_star.adjustment import adjust_alpha, compute_fail_probability
from repro.fairness.fair_star.mtable import minimum_protected_table, required_at
from repro.fairness.fair_star.rerank import fair_star_rerank
from repro.fairness.fair_star.verifier import FairStarAuditResult, FairStarMeasure

__all__ = [
    "minimum_protected_table",
    "required_at",
    "compute_fail_probability",
    "adjust_alpha",
    "FairStarMeasure",
    "FairStarAuditResult",
    "fair_star_rerank",
]
