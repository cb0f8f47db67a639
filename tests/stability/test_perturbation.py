"""Tests for repro.stability.perturbation and repro.stability.uncertainty."""

import numpy as np
import pytest

from repro.errors import StabilityError
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    minimal_change_epsilon,
)
from repro.tabular import Table


def gapped_table(n=20, gap=10.0, seed=5):
    """Items with huge score gaps: immune to small perturbations."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "name": [f"i{j}" for j in range(n)],
            "a": np.arange(n, dtype=float) * gap,
            "b": np.arange(n, dtype=float) * gap + rng.normal(0, 0.01, n),
        }
    )


def tight_table(n=20, seed=5):
    """Items with nearly tied scores: any jitter reorders them."""
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "name": [f"i{j}" for j in range(n)],
            "a": rng.normal(0, 1, n) * 0.001 + 1.0,
            "b": rng.normal(0, 1, n) * 0.001 + 1.0,
        }
    )


SCORER = LinearScoringFunction({"a": 0.5, "b": 0.5})
BAD_EPSILONS = [float("nan"), float("inf"), float("-inf"), -0.1]


class TestWeightPerturbation:
    def test_zero_epsilon_changes_nothing(self):
        est = WeightPerturbationStability(gapped_table(), SCORER, "name", trials=10)
        outcome = est.assess_at(0.0)
        assert outcome.mean_kendall_tau == pytest.approx(1.0)
        assert outcome.change_probability == 0.0

    def test_gapped_ranking_is_robust(self):
        est = WeightPerturbationStability(gapped_table(), SCORER, "name", trials=15)
        outcome = est.assess_at(0.2)
        assert outcome.mean_top_k_overlap == pytest.approx(1.0)

    def test_tight_ranking_is_fragile(self):
        est = WeightPerturbationStability(tight_table(), SCORER, "name", trials=15)
        outcome = est.assess_at(0.2)
        assert outcome.change_probability > 0.5

    def test_profile_monotone_in_epsilon(self):
        est = WeightPerturbationStability(tight_table(), SCORER, "name", trials=20)
        profile = est.profile([0.0, 0.1, 0.5])
        taus = [o.mean_kendall_tau for o in profile]
        assert taus[0] >= taus[1] >= taus[2] - 0.05

    def test_minimal_change_epsilon_ordering(self):
        fragile = WeightPerturbationStability(
            tight_table(), SCORER, "name", trials=15
        ).minimal_change_epsilon(iterations=6)
        robust = WeightPerturbationStability(
            gapped_table(), SCORER, "name", trials=15
        ).minimal_change_epsilon(iterations=6)
        assert fragile < robust
        assert robust == 1.0  # never changes within the sweep: hi returned

    def test_functional_shortcut(self):
        eps = minimal_change_epsilon(
            tight_table(), SCORER, "name", trials=10, probability=0.5
        )
        assert 0.0 <= eps <= 1.0

    def test_deterministic_given_seed(self):
        a = WeightPerturbationStability(tight_table(), SCORER, "name", trials=10,
                                        seed=3).assess_at(0.1)
        b = WeightPerturbationStability(tight_table(), SCORER, "name", trials=10,
                                        seed=3).assess_at(0.1)
        assert a == b

    def test_zero_weight_attribute_can_reenter(self):
        table = gapped_table()
        scorer = LinearScoringFunction({"a": 1.0, "b": 0.0})
        est = WeightPerturbationStability(table, scorer, "name", trials=5)
        outcome = est.assess_at(0.5)  # must not crash on the zero weight
        assert outcome.trials == 5

    def test_validation(self):
        with pytest.raises(StabilityError):
            WeightPerturbationStability(gapped_table(), SCORER, "name", k=0)
        with pytest.raises(StabilityError):
            WeightPerturbationStability(gapped_table(), SCORER, "name", trials=0)
        with pytest.raises(StabilityError):
            WeightPerturbationStability(gapped_table(), SCORER, "zz")
        est = WeightPerturbationStability(gapped_table(), SCORER, "name", trials=5)
        with pytest.raises(StabilityError):
            est.assess_at(-0.1)
        with pytest.raises(StabilityError):
            est.minimal_change_epsilon(probability=0.0)
        with pytest.raises(StabilityError):
            est.profile([])

    def test_outcome_as_dict(self):
        est = WeightPerturbationStability(gapped_table(), SCORER, "name", trials=5)
        d = est.assess_at(0.1).as_dict()
        assert {"epsilon", "mean_kendall_tau", "mean_top_k_overlap",
                "change_probability", "trials"} == set(d)


class TestDataUncertainty:
    def test_zero_noise_changes_nothing(self):
        est = DataUncertaintyStability(gapped_table(), SCORER, "name", trials=10)
        outcome = est.assess_at(0.0)
        assert outcome.change_probability == 0.0

    def test_tight_ranking_fragile_under_noise(self):
        est = DataUncertaintyStability(tight_table(), SCORER, "name", trials=15)
        assert est.assess_at(0.5).change_probability > 0.5

    def test_gapped_ranking_robust_under_small_noise(self):
        est = DataUncertaintyStability(gapped_table(), SCORER, "name", trials=15)
        assert est.assess_at(0.01).mean_top_k_overlap == pytest.approx(1.0)

    def test_constant_attribute_skipped(self):
        t = Table.from_dict(
            {"name": ["x", "y"], "a": [2.0, 1.0], "c": [5.0, 5.0]}
        )
        scorer = LinearScoringFunction({"a": 1.0, "c": 1.0})
        est = DataUncertaintyStability(t, scorer, "name", trials=5, k=1)
        outcome = est.assess_at(0.3)
        assert outcome.trials == 5  # no crash, constant column untouched

    def test_missing_values_stay_missing(self):
        t = Table.from_dict(
            {"name": ["x", "y", "z"], "a": [3.0, float("nan"), 1.0]}
        )
        scorer = LinearScoringFunction({"a": 1.0})
        est = DataUncertaintyStability(t, scorer, "name", trials=5, k=1)
        est.assess_at(0.2)  # NaN row keeps scoring as missing -> bottom

    def test_all_missing_attribute_rejected(self):
        t = Table.from_dict({"name": ["x", "y"], "a": [float("nan")] * 2})
        with pytest.raises(StabilityError, match="no non-missing"):
            DataUncertaintyStability(t, LinearScoringFunction({"a": 1.0}), "name")

    def test_minimal_change_epsilon(self):
        eps = DataUncertaintyStability(
            tight_table(), SCORER, "name", trials=10
        ).minimal_change_epsilon(iterations=5)
        assert 0.0 <= eps < 1.0


@pytest.mark.parametrize(
    "estimator", [WeightPerturbationStability, DataUncertaintyStability]
)
class TestEpsilonAndIterationValidation:
    @pytest.mark.parametrize("epsilon", BAD_EPSILONS, ids=str)
    def test_non_finite_or_negative_epsilon_rejected(self, estimator, epsilon):
        est = estimator(gapped_table(), SCORER, "name", trials=3)
        with pytest.raises(StabilityError, match="finite and non-negative"):
            est.assess_at(epsilon)

    def test_infinite_search_ceiling_rejected(self, estimator):
        est = estimator(gapped_table(), SCORER, "name", trials=3)
        with pytest.raises(StabilityError, match="finite"):
            est.minimal_change_epsilon(hi=float("inf"))

    def test_negative_iterations_rejected(self, estimator):
        est = estimator(gapped_table(), SCORER, "name", trials=3)
        with pytest.raises(StabilityError, match="iterations"):
            est.minimal_change_epsilon(iterations=-2)

    def test_zero_iterations_checks_only_the_ceiling(self, estimator):
        est = estimator(tight_table(), SCORER, "name", trials=5)
        assert est.minimal_change_epsilon(iterations=0) == 1.0
