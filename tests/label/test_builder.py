"""Tests for repro.label.builder."""

import pytest

from repro.errors import LabelError
from repro.label import RankingFactsBuilder
from repro.preprocess import NormalizationPlan
from repro.ranking import LinearScoringFunction


@pytest.fixture()
def builder(cs_table, cs_scorer):
    return (
        RankingFactsBuilder(cs_table, dataset_name="CS departments")
        .with_id_column("DeptName")
        .with_scoring(cs_scorer)
        .with_sensitive_attribute("DeptSizeBin")
        .with_diversity_attributes(["DeptSizeBin", "Region"])
    )


class TestConfiguration:
    def test_unknown_id_column_rejected(self, cs_table):
        with pytest.raises(LabelError):
            RankingFactsBuilder(cs_table).with_id_column("zz")

    def test_numeric_sensitive_attribute_rejected(self, cs_table):
        from repro.errors import ColumnTypeError

        builder = RankingFactsBuilder(cs_table)
        with pytest.raises(ColumnTypeError):
            builder.with_sensitive_attribute("GRE")

    def test_missing_scoring_rejected(self, cs_table):
        builder = RankingFactsBuilder(cs_table).with_sensitive_attribute("DeptSizeBin")
        with pytest.raises(LabelError, match="no scoring function"):
            builder.build()

    def test_missing_sensitive_rejected(self, cs_table, cs_scorer):
        builder = RankingFactsBuilder(cs_table).with_scoring(cs_scorer)
        with pytest.raises(LabelError, match="sensitive attribute"):
            builder.build()

    def test_parameter_validation(self, cs_table):
        builder = RankingFactsBuilder(cs_table)
        with pytest.raises(LabelError):
            builder.with_top_k(1)
        with pytest.raises(LabelError):
            builder.with_alpha(0.0)
        with pytest.raises(LabelError):
            builder.with_ingredients_method("shap")
        with pytest.raises(LabelError):
            builder.with_slope_threshold(-1.0)
        with pytest.raises(LabelError):
            builder.with_monte_carlo_stability(trials=0)
        for epsilon in (float("nan"), float("inf"), float("-inf"), -0.1):
            with pytest.raises(LabelError, match="finite and non-negative"):
                builder.with_monte_carlo_stability(epsilons=(0.1, epsilon))

    def test_tiny_table_rejected(self):
        from repro.errors import EmptyTableError
        from repro.tabular import Table

        with pytest.raises(EmptyTableError):
            RankingFactsBuilder(Table.from_dict({"a": [1.0]}))


class TestBuild:
    def test_label_structure(self, builder):
        facts = builder.build()
        label = facts.label
        assert label.dataset_name == "CS departments"
        assert label.num_items == 51
        assert label.k == 10
        assert label.widget_names() == (
            "recipe", "ingredients", "stability", "fairness", "diversity",
        )

    def test_recipe_contents(self, builder, cs_scorer):
        recipe = builder.build().label.recipe
        assert recipe.weights == cs_scorer.weights
        assert recipe.normalization == {
            "PubCount": "minmax", "Faculty": "minmax", "GRE": "minmax",
        }
        assert [s.attribute for s in recipe.statistics] == [
            "PubCount", "Faculty", "GRE",
        ]

    def test_recipe_statistics_top_k_within_overall(self, builder):
        for stat in builder.build().label.recipe.statistics:
            assert stat.top_k.minimum >= stat.overall.minimum
            assert stat.top_k.maximum <= stat.overall.maximum
            assert stat.top_k.count == 10
            assert stat.overall.count == 51

    def test_ingredients_widget(self, builder):
        widget = builder.build().label.ingredients
        assert widget.top_n == 3
        assert len(widget.top_attributes()) == 3
        # GRE must not lead (the paper's walkthrough finding)
        assert widget.top_attributes()[0] in ("PubCount", "Faculty")

    def test_fairness_widget_grid(self, builder):
        widget = builder.build().label.fairness
        grid = widget.verdict_grid()
        assert set(grid) == {"DeptSizeBin=large", "DeptSizeBin=small"}
        assert set(grid["DeptSizeBin=small"]) == {"FA*IR", "Proportion", "Pairwise"}
        assert widget.any_unfair()

    def test_diversity_widget(self, builder):
        widget = builder.build().label.diversity
        assert [r.attribute for r in widget.reports] == ["DeptSizeBin", "Region"]

    def test_default_normalization_is_minmax(self, builder):
        facts = builder.build()
        scores = facts.ranking.scores
        assert 0.0 <= scores.min() and scores.max() <= 1.0 + 1e-9

    def test_raw_normalization_plan(self, cs_table, cs_scorer):
        facts = (
            RankingFactsBuilder(cs_table)
            .with_id_column("DeptName")
            .with_scoring(cs_scorer)
            .with_normalization(NormalizationPlan.raw())
            .with_sensitive_attribute("DeptSizeBin")
            .build()
        )
        assert facts.label.recipe.normalization["GRE"] == "identity"
        assert facts.ranking.scores.max() > 10  # raw GRE magnitudes dominate

    def test_monte_carlo_stability_included_when_enabled(self, builder):
        facts = builder.with_monte_carlo_stability(trials=5, epsilons=[0.1]).build()
        widget = facts.label.stability
        assert len(widget.perturbation) == 1
        assert len(widget.uncertainty) == 1
        assert widget.perturbation[0].trials == 5
        # per-attribute sensitivity rides along with the Monte-Carlo detail
        assert {a.attribute for a in widget.per_attribute} == {
            "PubCount", "Faculty", "GRE",
        }

    def test_monte_carlo_off_by_default(self, builder):
        widget = builder.build().label.stability
        assert widget.perturbation == ()
        assert widget.uncertainty == ()
        assert widget.per_attribute == ()

    def test_gap_analysis_always_present(self, builder):
        widget = builder.build().label.stability
        assert set(widget.gaps) == {"top_k", "overall"}
        assert widget.gaps["overall"].num_gaps == 50  # 51 items
        assert widget.gaps["top_k"].swap_margin >= 0.0

    def test_diversity_defaults_to_sensitive(self, cs_table, cs_scorer):
        facts = (
            RankingFactsBuilder(cs_table)
            .with_id_column("DeptName")
            .with_scoring(cs_scorer)
            .with_sensitive_attribute("DeptSizeBin")
            .build()
        )
        assert [r.attribute for r in facts.label.diversity.reports] == ["DeptSizeBin"]

    def test_metadata_discloses_normalization_params(self, builder):
        meta = builder.build().label.metadata
        assert meta["id_column"] == "DeptName"
        assert "PubCount" in meta["normalization_params"]

    def test_custom_k_and_alpha_propagate(self, builder):
        facts = builder.with_top_k(5).with_alpha(0.01).build()
        assert facts.label.k == 5
        assert facts.label.fairness.alpha == 0.01
        assert facts.label.stability.slope_report.k == 5

    def test_build_is_deterministic(self, builder):
        a = builder.build().label.as_dict()
        b = builder.build().label.as_dict()
        assert a == b

    def test_linear_model_ingredients_method(self, builder):
        facts = builder.with_ingredients_method("linear-model").build()
        assert facts.label.ingredients.analysis.method == "linear-model"
