import math
import random
from fractions import Fraction
from itertools import product

import pytest

from stochtaylor import coefficients, planner
from stochtaylor.coefficients import get_tensor
from stochtaylor.errors import IndexPattern, error_bound_kfact, exact_error, normalized_error
from stochtaylor.planner import (
    Condition,
    PlannerCapError,
    case_catalog,
    case_pattern,
    check_hypothesis,
    minimal_order,
    minimal_order_kfact,
    reproduce_table,
    scheme_plan,
)
from test_coefficients import kept_prefixes


class TestCondition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Condition(7)
        with pytest.raises(ValueError):
            Condition(4, constant=0.0)
        with pytest.raises(ValueError, match="nan"):
            Condition(4, float("nan"))
        c = Condition(4)
        assert c.threshold(0.5) == Fraction(1, 16)
        assert c.admits(0.0624, c.threshold(0.5))
        assert c.admits(0.0625, c.threshold(0.5))  # boundary, non-strict
        strict = Condition(4, strict=True)
        assert not strict.admits(0.0625, strict.threshold(0.5))


class TestMinimalOrder:
    @pytest.mark.parametrize("profile,pattern,exp,h,expect", [
        ((0, 0), "distinct", 4, 2**-3, 8),
        ((0, 0, 0), "distinct", 4, 0.011, 12),
        ((0, 1), "distinct", 5, 0.010, 4),
        ((0, 1), "equal", 5, 0.010, 1),
        ((1, 0), "distinct", 5, 0.005, 8),
    ])
    def test_published_entries(self, profile, pattern, exp, h, expect):
        k = len(profile)
        pat = IndexPattern.distinct(k) if pattern == "distinct" else IndexPattern.all_equal(k)
        assert minimal_order(profile, pat, Condition(exp), h) == expect

    def test_quadruple_entry(self):
        got = minimal_order((0, 0, 0, 0), IndexPattern.distinct(4), Condition(5), 0.0040)
        assert got == 16

    def test_minimality_both_sides(self):
        cond = Condition(4)
        for profile, pattern, h in [
            ((0, 0, 0), IndexPattern.distinct(3), 0.011),
            ((0, 0, 0), IndexPattern(3, [(1, 3), (2,)]), 0.008),
            ((0, 1), Condition(5) and IndexPattern.distinct(2), 0.010),
        ]:
            q = minimal_order(profile, pattern, cond, h)
            thr = cond.threshold(h)
            assert exact_error(profile, pattern, q, h).value <= thr
            if q > 0:
                assert exact_error(profile, pattern, q - 1, h).value > thr

    def test_closed_form_shortcut_cross_check(self):
        # the pair fast path must agree with the generic tensor search
        rng = random.Random(11)
        pat = IndexPattern.distinct(2)
        for _ in range(20):
            exp = rng.choice([3, 4, 5, 6])
            h = rng.uniform(0.15, 0.9)
            cond = Condition(exp)
            fast = minimal_order((0, 0), pat, cond, h)
            thr = cond.threshold(h) / Fraction(h) ** 2
            # generic ascending search over the tensor route
            slow = 0
            while True:
                if normalized_error((0, 0), pat, slow) <= thr:
                    break
                slow += 1
            assert fast == slow

    @pytest.mark.parametrize("profile,exp,h,q", [
        ((0, 1), 5, 0.010, 4),
        ((0, 0, 0), 4, 0.011, 12),
        ((0, 0, 0, 0), 5, 0.0040, 16),
    ])
    def test_search_builds_each_entry_once_up_to_the_answer(self, monkeypatch,
                                                            profile, exp, h, q):
        # private empty caches stand in for clear_caches() and keep the rest
        # of the suite warm; the prefix cache records every moment vector stored
        stored = []

        class RecordingCache(dict):
            def setdefault(self, key, value):
                stored.append(key)
                return super().setdefault(key, value)

        monkeypatch.setattr(coefficients, "_prefix_cache", RecordingCache())
        for name in ("_bonnet_cache", "_tensor_cache"):
            monkeypatch.setattr(coefficients, name, {})
        k = len(profile)
        assert minimal_order(profile, IndexPattern.distinct(k), Condition(exp), h) == q
        assert coefficients._tensor_cache[profile].p == q
        # each shorter prefix moment vector of the box {0..q}^k is computed exactly
        # once, each kept (k-1)-prefix too (all but time-reversed (0,0,0,0) ones), and
        # none beyond the answer
        box = {tuple(zip(profile, a)) for m in range(1, k - 1)
               for a in product(range(q + 1), repeat=m)}
        box |= {tuple(zip(profile, a)) for a in kept_prefixes(profile, q)}
        assert len(stored) == len(set(stored)) and set(stored) == box

    def test_fractional_weights_rejected(self):
        with pytest.raises(ValueError, match="weight exponents must be integers, got 0.9"):
            minimal_order((0.9, 0, 0), IndexPattern.distinct(3), Condition(4), 0.011)

    def test_cap_guard(self):
        with pytest.raises(PlannerCapError):
            minimal_order((0, 0, 0), IndexPattern.distinct(3), Condition(4), 0.0005,
                          search_cap=10)

    def test_store_ceiling_ends_the_search_as_a_cap_error(self, monkeypatch):
        # under a ceiling of 10^4 floats, (0,0,0,0) stores 7^3 x 22 = 7546 at cap 6 but
        # 8^3 x 25 = 12800 at cap 7: the error names the goal, the cap and the ceiling
        for name in ("_prefix_cache", "_bonnet_cache", "_tensor_cache"):
            monkeypatch.setattr(coefficients, name, {})
        monkeypatch.setattr(coefficients, "ENTRY_CEILING", 10**4)
        args = ((0, 0, 0, 0), IndexPattern.distinct(4), Condition(5), 0.0005)
        with pytest.raises(PlannerCapError, match=(
                r"^no cap below 7 satisfies E <= 1.0\*\(T-t\)\^5 for profile \(0, 0, 0, 0\), "
                r"step 0.0005: at cap 7 the store shape \(8, 8, 8, 25\) = 12800 floats "
                r"exceeds ceiling 10000$")) as info:
            minimal_order(*args)
        assert isinstance(info.value.__cause__, coefficients.StoreCeilingError)
        assert coefficients._tensor_cache[(0, 0, 0, 0)].p == 6
        # every other ValueError of a probe propagates unchanged
        boom = ValueError("boom")

        def fail(*_):
            raise boom

        monkeypatch.setattr(planner, "normalized_error", fail)
        with pytest.raises(ValueError) as info:
            minimal_order(*args)
        assert info.value is boom

    def test_cap_guard_holds_with_larger_tensor_cached(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_tensor_cache", {})
        args = ((0, 0, 1), IndexPattern.distinct(3), Condition(6), 0.01)
        with pytest.raises(PlannerCapError):
            minimal_order(*args, search_cap=2)
        get_tensor((0, 0, 1), 12)
        with pytest.raises(PlannerCapError):
            minimal_order(*args, search_cap=2)
        assert minimal_order(*args) == 6

    def test_k2_cap_stops_at_degree_ceiling(self, monkeypatch):
        # the pair search cap is the Legendre degree ceiling, not an
        # unreachable 10^4 that ends in a degree error
        monkeypatch.setattr(coefficients, "_tensor_cache", {})
        with pytest.raises(PlannerCapError, match="no cap <= 200"):
            minimal_order((0, 1), IndexPattern.distinct(2), Condition(6), 0.01)

    @pytest.mark.parametrize("step", [-0.01, 0.0, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match=repr(step)):
            minimal_order_kfact((0, 0, 0), Condition(4), step)
        with pytest.raises(ValueError, match=repr(step)):
            minimal_order((0, 0, 0), IndexPattern.distinct(3), Condition(4), step)

    def test_strict_decides_an_exact_tie(self):
        # each threshold equals the error (or bound) at a known cap, so the
        # non-strict search stops there and the strict one a cap later
        pair = minimal_order((0, 0), IndexPattern.distinct(2), Condition(3), 0.25)
        strict_pair = minimal_order((0, 0), IndexPattern.distinct(2),
                                    Condition(3, strict=True), 0.25)
        assert (pair, strict_pair) == (0, 1)  # defect 1/4 at cap 0, threshold 1/4
        distinct = IndexPattern.distinct(3)
        tie = normalized_error((0, 0, 0), distinct, 2)
        assert minimal_order((0, 0, 0), distinct, Condition(4, tie), 1.0) == 2
        assert minimal_order((0, 0, 0), distinct, Condition(4, tie, strict=True), 1.0) == 3
        tie = error_bound_kfact((0, 0, 0), 2, 1.0)
        assert minimal_order_kfact((0, 0, 0), Condition(4, tie), 1.0) == 2
        assert minimal_order_kfact((0, 0, 0), Condition(4, tie, strict=True), 1.0) == 3
        # factorial bound 2 * 1/4 at cap 0 against threshold 1/2
        assert minimal_order_kfact((0, 0), Condition(3, 0.5), 1.0) == 0
        assert minimal_order_kfact((0, 0), Condition(3, 0.5, strict=True), 1.0) == 1

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("h", [1e-160, 1e-300])
    def test_pair_cap_at_tiny_steps(self, h, strict):
        # the thresholds underflow in floats; the cap is decided on exact rationals
        cond = Condition(4, strict=strict)
        q = minimal_order((0, 0), IndexPattern.distinct(2), cond, h)
        thr = cond.threshold(h) / Fraction(h) ** 2
        assert cond.admits(Fraction(1, 4 * (2 * q + 1)), thr)
        assert not cond.admits(Fraction(1, 4 * (2 * q - 1)), thr)

    def test_kfact_order_dominates(self):
        cond = Condition(4)
        for h in (0.5, 0.25, 0.125):
            p = minimal_order((0, 0, 0), IndexPattern.distinct(3), cond, h)
            pk = minimal_order_kfact((0, 0, 0), cond, h)
            assert pk >= p


class TestCatalog:
    def test_family_sizes(self):
        assert len(case_catalog(2, "a")) == 2
        assert len(case_catalog(3, "b")) == 5
        assert len(case_catalog(4)) == 15
        assert len(case_catalog(5)) == 52

    def test_lookup(self):
        profile, pattern = case_pattern("3.3.1.a")
        assert profile == (0, 0, 0)
        assert pattern == IndexPattern(3, [(1, 2), (3,)])
        profile, pattern = case_pattern("5.7.10")
        assert profile == (0,) * 5
        assert pattern == IndexPattern(5, [(1, 4, 5), (2, 3)])
        with pytest.raises(KeyError):
            case_pattern("9.9")

    def test_k5_pair_pair_block_count(self):
        cases = [c for c in case_catalog(5) if c[0].startswith("5.6.")]
        assert len(cases) == 15
        for _, _, pat in cases:
            sizes = sorted(len(b) for b in pat.blocks)
            assert sizes == [1, 2, 2]

    def test_k5_triple_pair_block_count(self):
        cases = [c for c in case_catalog(5) if c[0].startswith("5.7.")]
        assert len(cases) == 10
        for _, _, pat in cases:
            sizes = sorted(len(b) for b in pat.blocks)
            assert sizes == [2, 3]


class TestHypothesis:
    def test_triple_violation_at_finest_step(self):
        rep = check_hypothesis((0, 0, 0), Condition(4), 0.0025)
        assert rep.distinct_q == 50
        violations = {c.label: c.q for c in rep.violations}
        assert violations == {"3.3.3.a": 51}
        assert not rep.dominated

    def test_triple_dominated_at_coarser_step(self):
        rep = check_hypothesis((0, 0, 0), Condition(4), 0.011)
        assert rep.distinct_q == 12
        assert rep.dominated

    def test_quintuple_all_zero(self):
        rep = check_hypothesis((0,) * 5, Condition(6), 0.011)
        assert rep.distinct_q == 0
        assert rep.dominated
        assert all(c.q == 0 for c in rep.cases)

    def test_weighted_quadruple_keeps_all_equal_case(self):
        # the all-equal error vanishes only for all-zero weights
        rep = check_hypothesis((0, 0, 0, 1), Condition(5), 0.1)
        cases = {c.label: c for c in rep.cases}
        assert len(cases) == 14
        assert cases["4.2"].error_at_distinct_q > 0

    def test_unpublished_weighted_profile(self):
        with pytest.raises(ValueError, match=r"\(2, 0\).*\(0, 0\), \(0, 1\), \(1, 0\)"):
            check_hypothesis((2, 0), Condition(4), 0.1)
        with pytest.raises(ValueError, match=r"\(0, 0, 0\), \(0, 0, 1\)"):
            check_hypothesis((1, 1, 0), Condition(6), 0.1)

    def test_weighted_pair(self):
        rep = check_hypothesis((0, 1), Condition(5), 0.005)
        assert rep.distinct_q == 8
        qs = {c.label: c.q for c in rep.cases}
        assert qs == {"2.2.b": 1}
        assert rep.dominated


class TestSchemePlans:
    def test_order_15(self):
        plan = scheme_plan(1.5, 2**-5)
        assert plan.cap((0, 0)) == 128
        assert plan.cap((0, 0, 0)) == 4
        assert plan.cap((0,)) == 0
        assert plan.cap((1,)) == 1

    def test_order_20(self):
        plan = scheme_plan(2.0, 2**-2)
        assert plan.cap((0, 0)) == 8
        assert plan.cap((0, 0, 0)) == 2
        assert plan.cap((0, 1)) == 0
        assert plan.cap((1, 0)) == 0
        assert plan.cap((0, 0, 0, 0)) == 0

    def test_order_25(self):
        plan = scheme_plan(2.5, 2**-2.5)
        assert plan.cap((0, 0)) == 128
        assert plan.cap((0, 0, 0)) == 23
        assert plan.cap((0, 1)) == 2
        assert plan.cap((1, 0)) == 2
        assert plan.cap((0, 0, 0, 0)) == 2
        for weights in [(0, 0, 0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert plan.cap(weights) == 0

    def test_order_10(self):
        plan = scheme_plan(1.0, 2**-8)
        assert plan.cap((0, 0)) == 32

    def test_bad_order(self):
        with pytest.raises(ValueError):
            scheme_plan(3.0, 0.1)


class TestTables:
    def test_table_2_grid(self):
        t = reproduce_table(2)
        assert t.rows == [[4, 8, 16], [1, 1, 1], [4, 8, 16], [1, 1, 1]]

    def test_table_3_grid(self):
        t = reproduce_table(3)
        assert t.rows == [[6, 4, 2], [0, 0, 0], [3, 3, 1], [3, 1, 1], [6, 4, 2]]

    def test_table_10_with_note(self):
        t = reproduce_table(10)
        assert t.rows == [[0, 2, 32, 512]]
        assert any("discrepancy" in n for n in t.notes)

    def test_table_23_grid(self):
        t = reproduce_table(23)
        assert t.rows[0] == [0, 0, 1, 2, 4, 8]
        assert t.rows[1] == [1, 1, 8, 27, 125, 729]
        assert t.rows[2] == [1, 3, 6, 12, 24, 48]
        assert t.rows[3] == [8, 64, 343, 2197, 15625, 117649]

    def test_table_25_grid(self):
        t = reproduce_table(25)
        assert t.rows[0] == [0, 0, 0, 0, 0]
        assert t.rows[2] == [1, 2, 3, 4, 5]
        assert t.rows[3] == [32, 243, 1024, 3125, 7776]

    def test_table_16_values(self):
        t = reproduce_table(16)
        assert t.rows[0] == [4, 8, 16]
        for got, expect in zip(t.rows[1], [0.008950, 0.004660, 0.002383]):
            assert got == pytest.approx(expect, abs=1e-6)
        for got, expect in zip(t.rows[3], [0.000042, 0.000006, 0.000001]):
            assert got == pytest.approx(expect, abs=1e-6)

    def test_formats(self):
        t = reproduce_table(2)
        md = t.to_markdown()
        assert "| q(2.1.b) | 4 | 8 | 16 |" in md
        csv = t.to_csv()
        assert "q(2.1.b),4,8,16" in csv

    def test_bad_id(self):
        with pytest.raises(ValueError):
            reproduce_table(26)

    def test_minimality_of_emitted_orders(self):
        # every emitted cap satisfies its condition; cap-1 violates it
        t = reproduce_table(2)
        cond = Condition(5)
        for label, row in zip(t.row_labels, t.rows):
            case = label[2:-1]
            profile, pattern = case_pattern(case)
            for h, q in zip([0.010, 0.005, 0.0025], row):
                thr = cond.threshold(h)
                assert cond.admits(exact_error(profile, pattern, q, h).value, thr)
                if q > 0:
                    assert not cond.admits(exact_error(profile, pattern, q - 1, h).value, thr)
