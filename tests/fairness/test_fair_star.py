"""Tests for repro.fairness.fair_star (mtable, adjustment, verifier, rerank)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FairnessConfigError
from repro.fairness import (
    ProtectedGroup,
    adjust_alpha,
    compute_fail_probability,
    fair_star_rerank,
    generate_ranking_labels,
    minimum_protected_table,
)
from repro.fairness.fair_star.adjustment import fail_probability_of_mtable
from repro.fairness.fair_star.mtable import required_at
from repro.fairness.fair_star.rerank import rerank_labels
from repro.fairness.fair_star.verifier import FairStarMeasure, audit_prefixes
from repro.stats.distributions import binom_cdf
from tests.fairness.test_base import group_of


class TestMTable:
    def test_matches_definition(self):
        # m(i) is the smallest t with F(t; i, p) > alpha
        for i in (1, 5, 10, 30):
            m = required_at(i, 0.5, 0.1)
            assert binom_cdf(m, i, 0.5) > 0.1
            if m > 0:
                assert binom_cdf(m - 1, i, 0.5) <= 0.1

    def test_table_consistent_with_pointwise(self):
        table = minimum_protected_table(25, 0.4, 0.1)
        for i in range(1, 26):
            assert table[i - 1] == required_at(i, 0.4, 0.1)

    def test_monotone_nondecreasing(self):
        table = minimum_protected_table(60, 0.3, 0.05)
        assert (np.diff(table) >= 0).all()

    def test_growth_at_most_one_per_step(self):
        table = minimum_protected_table(60, 0.7, 0.1)
        assert (np.diff(table) <= 1).all()

    def test_known_values_from_fair_paper(self):
        # FA*IR paper example: p=0.5, alpha=0.1 -> first positions need 0
        table = minimum_protected_table(10, 0.5, 0.1)
        assert table[0] == 0  # a single item need not be protected
        assert table[-1] >= 2  # by position 10 some protected are required

    def test_higher_p_requires_more(self):
        low = minimum_protected_table(20, 0.3, 0.1)
        high = minimum_protected_table(20, 0.7, 0.1)
        assert (high >= low).all()
        assert high.sum() > low.sum()

    def test_smaller_alpha_requires_less(self):
        strict = minimum_protected_table(20, 0.5, 0.01)
        loose = minimum_protected_table(20, 0.5, 0.2)
        assert (strict <= loose).all()

    def test_validation(self):
        with pytest.raises(FairnessConfigError):
            minimum_protected_table(0, 0.5, 0.1)
        with pytest.raises(FairnessConfigError):
            minimum_protected_table(10, 0.0, 0.1)
        with pytest.raises(FairnessConfigError):
            minimum_protected_table(10, 0.5, 0.0)


class TestFailProbability:
    def test_zero_mtable_never_fails(self):
        assert fail_probability_of_mtable(np.zeros(10, dtype=int), 0.5) == 0.0

    def test_impossible_mtable_always_fails(self):
        # requiring 2 protected in a prefix of 1 is unsatisfiable
        mtable = np.asarray([2, 2, 2])
        assert fail_probability_of_mtable(mtable, 0.5) == pytest.approx(1.0)

    def test_matches_monte_carlo(self, rng):
        k, p, alpha = 15, 0.5, 0.1
        exact = compute_fail_probability(k, p, alpha)
        mtable = minimum_protected_table(k, p, alpha)
        trials = 4000
        fails = 0
        for _ in range(trials):
            draws = rng.random(k) < p
            counts = np.cumsum(draws)
            if (counts < mtable).any():
                fails += 1
        assert exact == pytest.approx(fails / trials, abs=0.03)

    def test_naive_test_inflates_type_one_error(self):
        # with many prefixes, the uncorrected test fails fair rankings
        # far more often than alpha
        assert compute_fail_probability(100, 0.5, 0.1) > 0.2

    def test_validation(self):
        with pytest.raises(FairnessConfigError):
            fail_probability_of_mtable(np.asarray([]), 0.5)
        with pytest.raises(FairnessConfigError):
            fail_probability_of_mtable(np.asarray([0]), 1.0)


class TestAdjustAlpha:
    @pytest.mark.parametrize("k,p", [(10, 0.5), (30, 0.3), (50, 0.6)])
    def test_adjusted_meets_target(self, k, p):
        alpha = 0.1
        adjusted = adjust_alpha(k, p, alpha)
        assert 0.0 < adjusted <= alpha
        assert compute_fail_probability(k, p, adjusted) <= alpha + 1e-12

    def test_adjustment_not_needlessly_small(self):
        # the adjusted level should sit near the feasibility boundary
        k, p, alpha = 30, 0.5, 0.1
        adjusted = adjust_alpha(k, p, alpha)
        assert compute_fail_probability(k, p, min(alpha, adjusted * 3)) > alpha

    def test_no_correction_when_unneeded(self):
        # tiny k: the naive test is already conservative
        alpha = 0.1
        if compute_fail_probability(2, 0.5, alpha) <= alpha:
            assert adjust_alpha(2, 0.5, alpha) == alpha

    def test_validation(self):
        with pytest.raises(FairnessConfigError):
            adjust_alpha(10, 0.5, 0.0)


class TestSharedMemoThreads:
    def test_concurrent_adjustments_match_serial(self):
        # the CDF and DP memos are shared by every thread building labels;
        # more threads than cores, a short switch interval, cold memos
        from repro.fairness.fair_star.adjustment import _memo_fail_probability
        from repro.fairness.fair_star.mtable import prefix_cdf

        cases = [(k, p) for k in (20, 40, 60) for p in (0.19, 0.5, 0.81)]
        expected = {case: adjust_alpha(*case, 0.1) for case in cases}
        prefix_cdf.cache_clear()
        _memo_fail_probability.cache_clear()
        results: dict = {}

        def work(offset):
            for case in cases[offset:] + cases[:offset]:
                results[(offset, case)] = adjust_alpha(*case, 0.1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 6 * len(cases)
        for (_, case), value in results.items():
            assert repr(value) == repr(expected[case])


class TestAuditPrefixes:
    def test_fair_ranking_passes(self, rng):
        labels = generate_ranking_labels(100, 0.5, rng=np.random.default_rng(1))
        audit = audit_prefixes(labels, p=0.5, k=20, alpha=0.1)
        assert audit.passes
        assert audit.failed_prefixes == ()

    def test_unfair_ranking_fails_with_positions(self):
        labels = np.asarray([False] * 30 + [True] * 30)
        audit = audit_prefixes(labels, p=0.5, k=20, alpha=0.1)
        assert not audit.passes
        assert len(audit.failed_prefixes) > 0
        assert audit.min_prefix_cdf < 0.01

    def test_type_one_error_calibrated(self, rng):
        # adjusted test rejects fair rankings at ~alpha
        k, p, alpha = 20, 0.5, 0.1
        rejections = 0
        trials = 400
        for _ in range(trials):
            labels = generate_ranking_labels(60, p, rng=rng)
            if not audit_prefixes(labels, p=p, k=k, alpha=alpha).passes:
                rejections += 1
        assert rejections / trials <= alpha + 0.05

    def test_unadjusted_rejects_more(self, rng):
        k, p, alpha = 30, 0.5, 0.1
        adjusted_rejections = naive_rejections = 0
        for _ in range(300):
            labels = generate_ranking_labels(60, p, rng=rng)
            if not audit_prefixes(labels, p=p, k=k, alpha=alpha).passes:
                adjusted_rejections += 1
            if not audit_prefixes(labels, p=p, k=k, alpha=alpha, adjust=False).passes:
                naive_rejections += 1
        assert naive_rejections > adjusted_rejections

    def test_short_labels_rejected(self):
        with pytest.raises(FairnessConfigError, match="at least"):
            audit_prefixes(np.asarray([True]), p=0.5, k=5, alpha=0.1)

    def test_audit_dict(self):
        labels = np.asarray([True, False] * 10)
        d = audit_prefixes(labels, p=0.5, k=10, alpha=0.1).as_dict()
        assert d["passes"] is True
        assert len(d["prefix_counts"]) == 10


class TestFairStarMeasure:
    def test_flags_only_underrepresentation(self):
        group = group_of([False] * 20 + [True] * 20)
        result = FairStarMeasure(k=10).audit(group)
        assert not result.fair
        complement = group_of([True] * 20 + [False] * 20)
        assert FairStarMeasure(k=10).audit(complement).fair

    def test_k_clamped_to_ranking(self):
        group = group_of([True, False] * 4)
        result = FairStarMeasure(k=100).audit(group)
        assert result.details["k"] == 8

    def test_explicit_p_overrides_group_share(self):
        group = group_of([True, False] * 10)
        # demanding 90% protected makes the balanced ranking fail
        result = FairStarMeasure(k=10, p=0.9).audit(group)
        assert not result.fair

    def test_constructor_validation(self):
        with pytest.raises(FairnessConfigError):
            FairStarMeasure(k=0)
        with pytest.raises(FairnessConfigError):
            FairStarMeasure(alpha=2.0)
        with pytest.raises(FairnessConfigError):
            FairStarMeasure(p=0.0)


class TestRerank:
    def test_reranked_ranking_passes_fair_star(self):
        labels = [False] * 25 + [True] * 25
        group = group_of(labels)
        fair = fair_star_rerank(group, k=20, alpha=0.1)
        audit_group = ProtectedGroup(fair, "g", "p")
        result = FairStarMeasure(k=20, alpha=0.1, p=0.5).audit(audit_group)
        assert result.fair

    def test_within_group_order_preserved(self):
        labels = [False] * 10 + [True] * 10
        group = group_of(labels)
        fair = fair_star_rerank(group, k=20, alpha=0.1)
        ids = fair.item_ids()
        protected_ids = [i for i in ids if int(i[1:]) >= 10]
        assert protected_ids == sorted(protected_ids, key=lambda s: int(s[1:]))

    def test_k_items_returned(self):
        group = group_of([False] * 15 + [True] * 15)
        assert fair_star_rerank(group, k=12).size == 12

    def test_infeasible_rejected(self):
        labels = np.asarray([False] * 30 + [True] * 2 + [False] * 8)
        scores = np.arange(40, 0, -1).astype(float)
        with pytest.raises(FairnessConfigError, match="infeasible"):
            rerank_labels(labels, scores, k=30, p=0.9, alpha=0.1)

    def test_rerank_validation(self):
        with pytest.raises(FairnessConfigError):
            rerank_labels(np.asarray([True]), np.asarray([1.0, 2.0]), 1, 0.5, 0.1)
        with pytest.raises(FairnessConfigError):
            rerank_labels(np.asarray([True, False]), np.asarray([2.0, 1.0]), 5, 0.5, 0.1)

    def test_no_op_when_already_fair(self):
        labels = [True, False] * 15
        group = group_of(labels)
        fair = fair_star_rerank(group, k=10, alpha=0.1)
        assert fair.item_ids() == group.ranking.top_k(10).item_ids()

    @given(st.integers(4, 40), st.floats(0.2, 0.8), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_rerank_always_satisfies_mtable(self, n, p, seed):
        rng = np.random.default_rng(seed)
        labels = rng.random(n) < p
        if not 0 < labels.sum() < n:
            return
        scores = np.sort(rng.random(n))[::-1]
        k = max(1, n // 2)
        group_p = labels.mean()
        try:
            order = rerank_labels(labels, scores, k=k, p=group_p, alpha=0.1)
        except FairnessConfigError:
            return  # infeasible instance, correctly refused
        taken = labels[order]
        mtable = minimum_protected_table(
            k, group_p, adjust_alpha(k, group_p, 0.1)
        ) if adjust_alpha(k, group_p, 0.1) > 0 else np.zeros(k, dtype=int)
        counts = np.cumsum(taken)
        assert (counts >= mtable).all()
