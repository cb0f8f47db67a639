"""Tests for repro.engine.jobs: designs, jobs, and their parsing."""

import pytest

from repro.engine.jobs import JobResult, JobStatus, LabelDesign, LabelJob
from repro.errors import EngineError
from repro.label.render_json import render_json
from repro.tabular import Table


DESIGN_BODY = {
    "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    "sensitive": ["DeptSizeBin"],
    "id_column": "DeptName",
    "k": 5,
}


class TestLabelDesign:
    def test_create_normalizes_shapes(self):
        design = LabelDesign.create(
            weights={"x": 1, "y": 2}, sensitive="group", k=5
        )
        assert design.weights == (("x", 1.0), ("y", 2.0))
        assert design.sensitive == ("group",)
        assert design.k == 5

    def test_create_rejects_empty(self):
        with pytest.raises(EngineError):
            LabelDesign.create(weights={}, sensitive="g")
        with pytest.raises(EngineError):
            LabelDesign.create(weights={"x": 1.0}, sensitive=[])

    def test_hashable_and_equal_by_value(self):
        a = LabelDesign.create(weights={"x": 1.0}, sensitive="g")
        b = LabelDesign.create(weights={"x": 1.0}, sensitive="g")
        assert a == b and hash(a) == hash(b)

    def test_weight_order_preserved(self):
        design = LabelDesign.create(weights={"b": 1.0, "a": 2.0}, sensitive="g")
        assert tuple(design.weights_dict()) == ("b", "a")

    def test_from_mapping_round_trip(self):
        design = LabelDesign.from_mapping(DESIGN_BODY)
        again = LabelDesign.from_mapping(design.canonical_dict() | {
            "weights": design.weights_dict(),
        })
        assert design == again

    def test_from_mapping_rejects_unknown_fields(self):
        with pytest.raises(EngineError, match="unknown design field"):
            LabelDesign.from_mapping(DESIGN_BODY | {"tpo_k": 3})

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.1], ids=str)
    def test_from_mapping_rejects_bad_epsilons(self, epsilon):
        body = DESIGN_BODY | {"monte_carlo_epsilons": [0.1, epsilon]}
        with pytest.raises(EngineError, match="finite and non-negative"):
            LabelDesign.from_mapping(body)

    def test_from_mapping_requires_weights(self):
        with pytest.raises(EngineError):
            LabelDesign.from_mapping({"sensitive": ["g"]})

    def test_from_mapping_rejects_malformed_values(self):
        base = {"weights": {"x": 1.0}, "sensitive": ["g"]}
        with pytest.raises(EngineError, match="bad design value for 'k'"):
            LabelDesign.from_mapping(base | {"k": "ten"})
        with pytest.raises(EngineError, match="monte_carlo_epsilons"):
            LabelDesign.from_mapping(base | {"monte_carlo_epsilons": 0.1})
        with pytest.raises(EngineError, match="bad design weights"):
            LabelDesign.from_mapping({"weights": {"x": "lots"}, "sensitive": ["g"]})
        with pytest.raises(EngineError, match="sensitive"):
            LabelDesign.from_mapping({"weights": {"x": 1.0}, "sensitive": 7})

    def test_canonical_dict_is_json_safe(self):
        import json

        payload = json.dumps(LabelDesign.from_mapping(DESIGN_BODY).canonical_dict())
        assert "PubCount" in payload

    def test_with_updates(self):
        design = LabelDesign.from_mapping(DESIGN_BODY)
        assert design.with_updates(k=3).k == 3
        assert design.k == 5  # frozen original untouched

    def test_builder_for_matches_direct_builder(self, cs_table):
        design = LabelDesign.from_mapping(DESIGN_BODY)
        facts = design.builder_for(cs_table, dataset_name="cs").build()
        assert facts.label.k == 5
        assert facts.label.dataset_name == "cs"
        weights = facts.label.recipe.weights
        assert set(weights) == {"PubCount", "Faculty", "GRE"}

    def test_builder_for_raw_normalization(self, cs_table):
        design = LabelDesign.from_mapping(DESIGN_BODY | {"normalize": False})
        facts = design.builder_for(cs_table).build()
        assert facts.label.recipe.normalization["PubCount"] == "identity"

    def test_builder_for_monte_carlo(self, cs_table):
        design = LabelDesign.from_mapping(
            DESIGN_BODY | {"monte_carlo_trials": 3, "monte_carlo_epsilons": [0.1]}
        )
        facts = design.builder_for(cs_table).build()
        assert facts.label.stability.perturbation[0].trials == 3


class TestLabelJob:
    def test_exactly_one_source_required(self):
        design = LabelDesign.from_mapping(DESIGN_BODY)
        with pytest.raises(EngineError, match="exactly one data source"):
            LabelJob(design=design)
        with pytest.raises(EngineError, match="exactly one data source"):
            LabelJob(design=design, dataset="compas", csv_path="x.csv")

    def test_resolve_builtin(self):
        job = LabelJob(
            design=LabelDesign.from_mapping(DESIGN_BODY), dataset="cs-departments"
        )
        table, name = job.resolve_table()
        assert name == "cs-departments"
        assert "DeptName" in table

    def test_resolve_table_object(self):
        table = Table.from_dict({"x": [1.0, 2.0], "g": ["a", "b"]})
        job = LabelJob(
            design=LabelDesign.create(weights={"x": 1.0}, sensitive="g"),
            table=table,
            dataset_name="tiny",
        )
        resolved, name = job.resolve_table()
        assert resolved is table and name == "tiny"

    def test_resolve_csv(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("x,g\n1.0,a\n2.0,b\n", encoding="utf-8")
        job = LabelJob(
            design=LabelDesign.create(weights={"x": 1.0}, sensitive="g"),
            csv_path=str(path),
        )
        table, name = job.resolve_table()
        assert name == "mini" and table.num_rows == 2

    def test_from_mapping(self):
        job = LabelJob.from_mapping(
            {"dataset": "compas", "design": DESIGN_BODY, "id": "my-job"}
        )
        assert job.dataset == "compas" and job.job_id == "my-job"

    def test_spec_id_wins_over_positional_default(self):
        """Regression: a positional job-<index> id used to shadow the
        spec's own "id", silently renaming batch outputs."""
        named = LabelJob.from_mapping(
            {"dataset": "compas", "design": DESIGN_BODY, "id": "my-job"},
            job_id="job-3",
        )
        assert named.job_id == "my-job"
        unnamed = LabelJob.from_mapping(
            {"dataset": "compas", "design": DESIGN_BODY}, job_id="job-3"
        )
        assert unnamed.job_id == "job-3"

    def test_from_mapping_requires_design(self):
        with pytest.raises(EngineError, match="design"):
            LabelJob.from_mapping({"dataset": "compas"})


class TestJobResult:
    def test_summary_shape(self):
        result = JobResult(job_id="j", status=JobStatus.DONE, cached=True)
        summary = result.summary()
        assert summary["status"] == "done" and summary["cached"] is True
        assert summary["error"] is None

    def test_render_json_of_resulting_label(self, cs_table):
        design = LabelDesign.from_mapping(DESIGN_BODY)
        facts = design.builder_for(cs_table).build()
        assert '"fairness"' in render_json(facts.label)
