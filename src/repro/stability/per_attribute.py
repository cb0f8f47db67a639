"""Per-attribute stability: which ingredient is the ranking hostage to?

"Alternatively, stability can be computed with respect to each scoring
attribute" (paper §2.2).  For each scoring attribute this estimator
jitters *only that attribute's weight* and finds the smallest relative
change that more-likely-than-not alters the top-k — so an analyst can
read "the ranking survives a 40% change to GRE's weight but flips under
a 6% change to PubCount's" directly off the detailed widget.

Each bisection probe (``iterations + 1`` per attribute) runs its trials
through a module-level function over a plain picklable payload, so any
:class:`~repro.engine.backends.TrialBackend` gives byte-identical
results: ``serial`` runs the scalar trial (the oracle), ``vectorized``
computes the probe's whole batch as one sort-free array program
(:func:`repro.stability.kernels.run_attribute_kernel`), and ``remote``
ships trial spans to cluster workers that run the same kernel.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StabilityError
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability.montecarlo import (
    backend_for,
    checked_iterations,
    run_payload_trials,
    trial_rng,
)
from repro.tabular.table import Table

if TYPE_CHECKING:
    from repro.engine.backends import TrialBackend

__all__ = ["AttributeStability", "AttributeTrialPayload", "per_attribute_stability"]


@dataclass(frozen=True)
class AttributeStability:
    """One attribute's sensitivity result.

    ``critical_epsilon`` is the smallest relative weight change at which
    the top-k changes with probability >= ``probability``; 1.0 (the
    search ceiling) means the ranking never flipped within a 100%
    change of this single weight.
    """

    attribute: str
    weight: float
    critical_epsilon: float
    probability: float

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for serialization."""
        return {
            "attribute": self.attribute,
            "weight": self.weight,
            "critical_epsilon": self.critical_epsilon,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class AttributeTrialPayload:
    """Everything one single-weight-jitter trial needs, picklable.

    The scorer travels as the object itself (the repo's scorers pickle
    cleanly), so subclass behaviour survives the process boundary.
    """

    table: Table
    scorer: LinearScoringFunction
    attribute: str
    epsilon: float
    scale: float
    id_column: str | None
    baseline_top: frozenset
    k: int
    seed: int


def _attribute_trial(payload: AttributeTrialPayload, trial: int) -> bool:
    """One Monte-Carlo draw; module-level so a process backend can ship it."""
    rng = trial_rng(payload.seed, trial)
    delta = float(rng.uniform(-payload.epsilon, payload.epsilon) * payload.scale)
    perturbed = payload.scorer.perturbed({payload.attribute: delta})
    ranking = rank_table(payload.table, perturbed, payload.id_column)
    return set(ranking.item_ids()[: payload.k]) != payload.baseline_top


def _change_probability(
    table: Table,
    scorer: LinearScoringFunction,
    attribute: str,
    epsilon: float,
    id_column: str | None,
    baseline_top: frozenset,
    k: int,
    trials: int,
    seed: int,
    backend: "TrialBackend | None" = None,
) -> float:
    weight = scorer.weights[attribute]
    scale = abs(weight) if weight != 0.0 else float(
        np.mean([abs(w) for w in scorer.weights.values()])
    )
    payload = AttributeTrialPayload(
        table=table,
        scorer=scorer,
        attribute=attribute,
        epsilon=float(epsilon),
        scale=scale,
        id_column=id_column,
        baseline_top=baseline_top,
        k=k,
        seed=seed,
    )
    return sum(run_payload_trials(_attribute_trial, payload, trials, backend)) / trials


def per_attribute_stability(
    table: Table,
    scorer: LinearScoringFunction,
    id_column: str | None = None,
    k: int = 10,
    trials: int = 30,
    probability: float = 0.5,
    iterations: int = 8,
    seed: int = 20180610,
    executor: Executor | None = None,
    backend: "TrialBackend | None" = None,
) -> list[AttributeStability]:
    """Critical single-weight change per attribute, most fragile first.

    Parameters
    ----------
    table:
        The (already preprocessed) data being ranked.
    scorer:
        The linear scoring function under audit.
    id_column:
        Item identifier column.
    k:
        Top-k whose composition defines "the ranking changed".
    trials:
        Monte-Carlo draws per probed epsilon.
    probability:
        Change-probability level defining the critical epsilon.
    iterations:
        Bisection steps (the search window is [0, 1] relative change).
    seed:
        RNG seed, fixed for reproducible labels.  Each Monte-Carlo
        trial draws from its own ``[seed, trial]`` stream, so results
        match between serial and parallel execution.
    executor:
        Optional :class:`concurrent.futures.Executor` the trials of
        each bisection probe fan out over (when ``backend`` is unset).
    backend:
        Optional :class:`~repro.engine.backends.TrialBackend`; takes
        precedence over ``executor`` and may cross process boundaries.
    """
    if k < 1:
        raise StabilityError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise StabilityError(f"trials must be >= 1, got {trials}")
    if not 0.0 < probability <= 1.0:
        raise StabilityError(f"probability must be in (0, 1], got {probability}")
    checked_iterations(iterations)
    backend = backend_for(executor, backend)
    baseline = rank_table(table, scorer, id_column)
    baseline_top = frozenset(baseline.item_ids()[: min(k, baseline.size)])
    k = min(k, baseline.size)

    results = []
    for attribute, weight in scorer.weights.items():
        def probe(epsilon: float, attr=attribute) -> float:
            return _change_probability(
                table, scorer, attr, epsilon, id_column,
                baseline_top, k, trials, seed, backend,
            )

        if probe(1.0) < probability:
            critical = 1.0  # never flips within the search window
        else:
            lo, hi = 0.0, 1.0
            for _ in range(iterations):
                mid = (lo + hi) / 2.0
                if probe(mid) >= probability:
                    hi = mid
                else:
                    lo = mid
            critical = hi
        results.append(
            AttributeStability(
                attribute=attribute,
                weight=float(weight),
                critical_epsilon=float(critical),
                probability=probability,
            )
        )
    results.sort(key=lambda r: (r.critical_epsilon, r.attribute))
    return results
