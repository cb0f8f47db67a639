"""Tests for repro.stability.gaps and repro.stability.per_attribute."""

import numpy as np
import pytest

from repro.errors import StabilityError
from repro.ranking import LinearScoringFunction, Ranking
from repro.stability import per_attribute_stability, score_gap_analysis
from repro.tabular import Table


def ranking_with_scores(scores):
    t = Table.from_dict({"name": [f"i{j}" for j in range(len(scores))]})
    return Ranking.from_scores(t, scores, id_column="name")


class TestScoreGapAnalysis:
    def test_uniform_gaps(self):
        r = ranking_with_scores([4.0, 3.0, 2.0, 1.0])
        reports = score_gap_analysis(r, k=3)
        assert set(reports) == {"top_k", "overall"}
        overall = reports["overall"]
        assert overall.num_gaps == 3
        assert overall.min_gap == pytest.approx(1.0)
        assert overall.median_gap == pytest.approx(1.0)
        assert overall.swap_margin == pytest.approx(0.5)

    def test_tightest_pair_located(self):
        r = ranking_with_scores([10.0, 9.0, 8.99, 5.0])
        overall = score_gap_analysis(r)["overall"]
        assert overall.tightest_pair_rank == 2  # the 9.0 / 8.99 pair
        assert overall.min_gap == pytest.approx(0.01)

    def test_relative_values_scale_free(self):
        a = score_gap_analysis(ranking_with_scores([10.0, 9.0, 1.0]))["overall"]
        b = score_gap_analysis(ranking_with_scores([1.0, 0.9, 0.1]))["overall"]
        assert a.min_gap_relative == pytest.approx(b.min_gap_relative)

    def test_top_k_segment(self):
        scores = [10.0, 9.999, 9.0, 5.0, 1.0]
        top = score_gap_analysis(ranking_with_scores(scores), k=2)["top_k"]
        assert top.segment == "top-2"
        assert top.num_gaps == 1
        assert top.min_gap == pytest.approx(0.001)

    def test_ties_give_zero_margin(self):
        reports = score_gap_analysis(ranking_with_scores([2.0, 1.0, 1.0]))
        assert reports["overall"].min_gap == 0.0
        assert reports["overall"].swap_margin == 0.0

    def test_constant_scores_zero_span(self):
        overall = score_gap_analysis(ranking_with_scores([1.0, 1.0, 1.0]))["overall"]
        assert overall.min_gap_relative == 0.0

    def test_validation(self):
        with pytest.raises(StabilityError):
            score_gap_analysis(ranking_with_scores([1.0, 2.0][:1]))
        with pytest.raises(StabilityError):
            score_gap_analysis(ranking_with_scores([2.0, 1.0]), k=1)
        nan_ranking = ranking_with_scores([2.0, 1.0, float("nan")])
        with pytest.raises(StabilityError, match="NaN"):
            score_gap_analysis(nan_ranking)

    def test_as_dict(self):
        d = score_gap_analysis(ranking_with_scores([3.0, 2.0, 1.0]))["overall"].as_dict()
        assert "swap_margin" in d and "tightest_pair_rank" in d


class TestPerAttributeStability:
    @pytest.fixture()
    def table(self):
        rng = np.random.default_rng(8)
        n = 30
        # two anti-correlated attributes with near-tied combined scores:
        # the ranking is fragile to either weight moving
        a = rng.normal(0, 1, n)
        b = -a + rng.normal(0, 0.05, n)
        return Table.from_dict(
            {"name": [f"i{j}" for j in range(n)], "a": a, "b": b}
        )

    def test_fragile_attributes_identified(self, table):
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.5})
        results = per_attribute_stability(
            table, scorer, "name", k=5, trials=15, iterations=5
        )
        # near-tied scores: single-weight jitter flips the top-5 well
        # inside the search window for both attributes
        assert all(r.critical_epsilon < 1.0 for r in results)

    def test_robust_attribute_scores_higher(self, table):
        # give `a` a dominant weight: its own jitter mostly rescales, while
        # `b`'s jitter changes the mix -> `b` must not look *more* robust
        scorer = LinearScoringFunction({"a": 1.0, "b": 0.05})
        results = per_attribute_stability(
            table, scorer, "name", k=5, trials=15, iterations=5
        )
        by_name = {r.attribute: r for r in results}
        assert by_name["a"].critical_epsilon >= by_name["b"].critical_epsilon

    def test_sorted_most_fragile_first(self, table):
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.5})
        results = per_attribute_stability(
            table, scorer, "name", k=5, trials=10, iterations=4
        )
        epsilons = [r.critical_epsilon for r in results]
        assert epsilons == sorted(epsilons)

    def test_ceiling_for_irrelevant_weight(self):
        # one attribute with huge gaps: no single-weight jitter changes it
        t = Table.from_dict(
            {"name": ["x", "y", "z"], "a": [100.0, 50.0, 0.0]}
        )
        results = per_attribute_stability(
            t, LinearScoringFunction({"a": 1.0}), "name", k=2, trials=10
        )
        assert results[0].critical_epsilon == 1.0

    def test_zero_weight_attribute_handled(self, table):
        scorer = LinearScoringFunction({"a": 1.0, "b": 0.0})
        results = per_attribute_stability(
            table, scorer, "name", k=5, trials=8, iterations=3
        )
        assert {r.attribute for r in results} == {"a", "b"}

    def test_validation(self, table):
        scorer = LinearScoringFunction({"a": 1.0})
        with pytest.raises(StabilityError):
            per_attribute_stability(table, scorer, "name", k=0)
        with pytest.raises(StabilityError):
            per_attribute_stability(table, scorer, "name", trials=0)
        with pytest.raises(StabilityError):
            per_attribute_stability(table, scorer, "name", probability=0.0)
        with pytest.raises(StabilityError, match="iterations"):
            per_attribute_stability(table, scorer, "name", iterations=-3)

    def test_deterministic(self, table):
        scorer = LinearScoringFunction({"a": 1.0, "b": 0.02})
        a = per_attribute_stability(table, scorer, "name", k=5, trials=8,
                                    iterations=3)
        b = per_attribute_stability(table, scorer, "name", k=5, trials=8,
                                    iterations=3)
        assert a == b

    def test_as_dict(self, table):
        result = per_attribute_stability(
            table, LinearScoringFunction({"a": 1.0}), "name", trials=5,
            iterations=2,
        )[0]
        assert set(result.as_dict()) == {
            "attribute", "weight", "critical_epsilon", "probability",
        }
