"""Tests for repro.stability.kernels: vectorized trial batches.

The acceptance-critical property lives here: for every payload a
kernel accepts, its batch result is **byte-identical** to running the
scalar trial function over ``range(trials)`` — across seeds, k, and
epsilon, for all three estimators.  Payloads a kernel cannot reproduce
exactly (non-linear scorers, duplicate ids, inconsistent baselines)
must be declined with a reason so the ``vectorized`` backend can fall
back to the scalar path.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic_scores_table
from repro.engine.backends import VectorizedTrialBackend
from repro.errors import RankingError, RankingFactsError
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction, ScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.kernels import (
    dispatch_kernel,
    kernel_for,
    run_attribute_kernel,
    run_perturbation_kernel,
    run_uncertainty_kernel,
)
from repro.stability.per_attribute import AttributeTrialPayload, _attribute_trial
from repro.stability.perturbation import (
    PerturbationTrialPayload,
    _perturbation_trial,
)
from repro.stability.uncertainty import _uncertainty_trial
from repro.tabular import Table

WEIGHTS = {"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}


def mc_table(n=60, seed=11):
    return synthetic_scores_table(
        n, num_attributes=3, group_advantage=0.6, seed=seed
    )


def scalar_batch(fn, payload, trials):
    """The reference: the scalar trial function, run serially."""
    return [fn(payload, t) for t in range(trials)]


class SubclassedLinear(LinearScoringFunction):
    """A linear subclass that overrides scoring — kernels must decline it."""

    def score_table(self, table):
        return super().score_table(table) + 1.0


class CubeScorer(ScoringFunction):
    """A genuinely non-linear scorer (for the uncertainty estimator)."""

    name = "cube scorer"

    def __init__(self, attribute: str):
        self._attribute = attribute

    def score_table(self, table):
        return np.nan_to_num(table.numeric_column(self._attribute).values) ** 3

    def attributes(self):
        return (self._attribute,)


class TestByteIdentityViaEstimators:
    """Estimator outcomes on the vectorized backend == serial outcomes."""

    @pytest.mark.parametrize("seed", [0, 7, 20180610])
    @pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.25])
    def test_perturbation(self, seed, epsilon):
        table = mc_table()
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (1, 5, 200):  # 200 > n exercises the clamped prefix
            serial = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed
            )
            vectorized = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    def test_uncertainty(self, seed, epsilon):
        table = mc_table(seed=5)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (3, 10):
            serial = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed
            )
            vectorized = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("seed", [1, 42])
    def test_per_attribute(self, seed):
        table = mc_table(seed=3)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed
        )
        vectorized = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.scalar_runs == 0
        assert backend.kernel_runs > 0

    def test_per_attribute_without_id_column(self):
        """Positional ids: the kernel must mirror the scalar quirk exactly."""
        table = mc_table(seed=9)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1
        )
        vectorized = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.scalar_runs == 0

    def test_zero_weight_attribute_jitters_identically(self):
        """The mean-|w| rescue for zero weights must match draw-for-draw."""
        table = mc_table(seed=2)
        scorer = LinearScoringFunction({"attr_1": 0.7, "attr_2": 0.0, "attr_3": 0.3})
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4, backend=backend
        )
        assert serial.assess_at(0.3) == vectorized.assess_at(0.3)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("policy", ["zero", "propagate"])
    def test_missing_values_both_policies(self, policy):
        rng = np.random.default_rng(8)
        values_a = rng.normal(0, 1, 40)
        values_b = rng.normal(0, 1, 40)
        values_a[::7] = np.nan  # a NaN pattern both paths must honour
        table = Table.from_dict(
            {"name": [f"i{j}" for j in range(40)], "a": values_a, "b": values_b}
        )
        scorer = LinearScoringFunction({"a": 0.6, "b": 0.4}, missing_policy=policy)
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "name", k=5, trials=10, seed=6
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial.assess_at(0.2) == vectorized.assess_at(0.2)
        serial_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6
        )
        vectorized_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial_u.assess_at(0.2) == vectorized_u.assess_at(0.2)
        assert backend.scalar_runs == 0


class TestKernelsMatchScalarTrialFunctions:
    """Raw kernel output == the scalar trial function, element for element."""

    def test_perturbation_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=7, trials=9, seed=13
        )
        payload = estimator._payload_at(0.15)
        assert run_perturbation_kernel(payload, 9) == scalar_batch(
            _perturbation_trial, payload, 9
        )

    def test_uncertainty_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = DataUncertaintyStability(
            table, scorer, "item", k=7, trials=9, seed=13
        )
        payload = estimator._payload_at(0.15)
        assert run_uncertainty_kernel(payload, 9) == scalar_batch(
            _uncertainty_trial, payload, 9
        )

    def test_attribute_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        baseline = rank_table(table, scorer, "item")
        payload = AttributeTrialPayload(
            table=table,
            scorer=scorer,
            attribute="attr_2",
            epsilon=0.6,
            scale=abs(WEIGHTS["attr_2"]),
            id_column="item",
            baseline_top=frozenset(baseline.item_ids()[:7]),
            k=7,
            seed=21,
        )
        assert run_attribute_kernel(payload, 9) == scalar_batch(
            _attribute_trial, payload, 9
        )


class TestFallbackDispatch:
    """Ineligible work is declined with a reason, never computed wrong."""

    def test_unknown_trial_function(self):
        results, reason = dispatch_kernel(lambda payload, trial: 0, {}, 3)
        assert results is None
        assert "no vectorized kernel" in reason

    def test_payload_type_mismatch(self):
        results, reason = dispatch_kernel(_perturbation_trial, {"not": "it"}, 3)
        assert results is None
        assert "does not match" in reason

    def test_kernel_for_registry(self):
        assert kernel_for(_perturbation_trial) is run_perturbation_kernel
        assert kernel_for(_uncertainty_trial) is run_uncertainty_kernel
        assert kernel_for(_attribute_trial) is run_attribute_kernel
        assert kernel_for(print) is None

    def test_linear_subclass_declined_but_results_match(self):
        """A subclass may override score_table — fall back, stay correct."""
        table = mc_table(n=30)
        scorer = SubclassedLinear(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=8, seed=2
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=8, seed=2, backend=backend
        )
        assert serial.assess_at(0.1) == vectorized.assess_at(0.1)
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1
        assert "LinearScoringFunction" in backend.fallback_reason

    def test_nonlinear_scorer_declined_but_results_match(self):
        table = mc_table(n=30)
        scorer = CubeScorer("attr_1")
        backend = VectorizedTrialBackend()
        serial = DataUncertaintyStability(
            table, scorer, "item", k=5, trials=8, seed=2
        )
        vectorized = DataUncertaintyStability(
            table, scorer, "item", k=5, trials=8, seed=2, backend=backend
        )
        assert serial.assess_at(0.2) == vectorized.assess_at(0.2)
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1

    def test_duplicate_ids_declined(self):
        table = Table.from_dict(
            {
                "name": ["x", "x", "y", "z"],
                "a": [1.0, 2.0, 3.0, 4.0],
                "b": [4.0, 3.0, 2.0, 1.0],
            }
        )
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.5})
        payload = PerturbationTrialPayload(
            table=table,
            scorer=scorer,
            id_column="name",
            baseline_ids=("x", "x", "y", "z"),
            baseline_top=frozenset({"x", "y"}),
            k=2,
            epsilon=0.1,
            seed=1,
        )
        results, reason = dispatch_kernel(_perturbation_trial, payload, 4)
        assert results is None
        assert "unique" in reason

    def test_inconsistent_baseline_declined(self):
        """A payload whose baseline lies about its table must not be trusted."""
        table = mc_table(n=20)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=4, seed=1
        )
        genuine = estimator._payload_at(0.1)
        doctored = PerturbationTrialPayload(
            table=genuine.table,
            scorer=genuine.scorer,
            id_column=genuine.id_column,
            baseline_ids=tuple(reversed(genuine.baseline_ids)),
            baseline_top=genuine.baseline_top,
            k=genuine.k,
            epsilon=genuine.epsilon,
            seed=genuine.seed,
        )
        results, reason = dispatch_kernel(_perturbation_trial, doctored, 4)
        assert results is None
        assert "baseline" in reason


# -- per-attribute kernel on tie-heavy data -----------------------------------

# COMPAS-like small integers plus the values whose order is delicate
_VALUES = [0.0, 1.0, 2.0, 3.0, -0.0, math.nan, math.inf, -math.inf]
_ATTRIBUTES = ("a", "b", "c")


@st.composite
def attribute_payloads(draw):
    """A single-weight-jitter payload over a table full of duplicate rows."""
    pool = draw(
        st.lists(
            st.tuples(*[st.sampled_from(_VALUES) for _ in _ATTRIBUTES]),
            min_size=1, max_size=4,
        )
    )
    n = draw(st.integers(1, 12))
    rows = [draw(st.sampled_from(pool)) for _ in range(n)]
    columns = {a: [row[i] for row in rows] for i, a in enumerate(_ATTRIBUTES)}
    table = Table.from_dict({"name": [f"i{j}" for j in range(n)], **columns})
    weights = {
        a: draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5])) for a in _ATTRIBUTES
    }
    if all(w == 0.0 for w in weights.values()):
        weights["c"] = 1.0
    scorer = LinearScoringFunction(
        weights, missing_policy=draw(st.sampled_from(["zero", "propagate"]))
    )
    attribute = draw(st.sampled_from(_ATTRIBUTES))  # first, middle, last
    weight = weights[attribute]
    scale = abs(weight) if weight != 0.0 else float(
        np.mean([abs(w) for w in weights.values()])
    )
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 5, draw(st.integers(1, n))]))
    id_column = draw(st.sampled_from(["name", "name", None]))
    try:
        own = rank_table(table, scorer, id_column).item_ids()[:k]
    except RankingFactsError:  # the baseline itself is unrankable
        own = [f"i{j}" for j in range(min(k, n))]
    kind = draw(
        st.sampled_from(["own", "own", "foreign", "short", "long", "other", "other"])
    )
    if kind == "foreign":
        baseline_top = frozenset(own[1:]) | {"foreign"}
    elif kind == "short":
        baseline_top = frozenset(own[1:])
    elif kind == "long":
        baseline_top = frozenset(own) | {"foreign"}
    elif kind == "other":
        ids = [f"i{j}" for j in range(n)] if id_column else list(range(1, n + 1))
        baseline_top = frozenset(draw(st.permutations(ids))[: min(k, n)])
    else:
        baseline_top = frozenset(own)
    return AttributeTrialPayload(
        table=table,
        scorer=scorer,
        attribute=attribute,
        epsilon=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])),
        scale=scale,
        id_column=id_column,
        baseline_top=baseline_top,
        k=k,
        seed=draw(st.integers(0, 2**16)),
    )


class TestAttributeKernelExactOnTies:
    """The sort-free top-set test == the scalar trial, ties and all."""

    @given(
        payload=attribute_payloads(),
        trials=st.integers(1, 10),
        start=st.integers(0, 40),
    )
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_kernel_equals_scalar_trials(self, payload, trials, start):
        try:
            expected = [
                _attribute_trial(payload, t) for t in range(start, start + trials)
            ]
        except RankingFactsError:
            # the scalar path refuses (all-zero weights, NaN above -inf):
            # the kernel must decline, never answer
            results, reason = dispatch_kernel(
                _attribute_trial, payload, trials, start
            )
            assert results is None and reason
            return
        assert run_attribute_kernel(payload, trials, start) == expected

    def test_boundary_tie_broken_by_row(self):
        """Identical rows straddle the cutoff: row order decides membership."""
        table = Table.from_dict(
            {"name": ["p", "q", "r", "s"], "a": [1.0, 2.0, 2.0, 2.0]}
        )
        scorer = LinearScoringFunction({"a": 1.0})
        for top, changed in ((frozenset({"q", "r"}), False),
                             (frozenset({"r", "s"}), True)):
            payload = AttributeTrialPayload(
                table=table, scorer=scorer, attribute="a", epsilon=0.5,
                scale=1.0, id_column="name", baseline_top=top, k=2, seed=3,
            )
            assert run_attribute_kernel(payload, 5, 7) == [changed] * 5
            assert scalar_batch(_attribute_trial, payload, 12)[7:] == [changed] * 5

    def test_nan_above_negative_infinity_is_declined(self):
        table = Table.from_dict(
            {"name": ["p", "q", "r"], "a": [math.nan, 1.0, -math.inf]}
        )
        payload = AttributeTrialPayload(
            table=table,
            scorer=LinearScoringFunction({"a": 1.0}, missing_policy="propagate"),
            attribute="a", epsilon=0.1, scale=1.0, id_column="name",
            baseline_top=frozenset({"q"}), k=1, seed=0,
        )
        with pytest.raises(RankingError, match="suffix"):
            _attribute_trial(payload, 0)
        results, reason = dispatch_kernel(_attribute_trial, payload, 3)
        assert results is None
        assert "NaN" in reason
