"""Error-rule verification against literal transcriptions of the published
case formulas.

Each transcription reads exactly as printed for its case (explicit subscript
permutations written out), evaluates from exact reduced coefficients, and is
compared against the general permutation-block rule at 12 significant
figures.
"""

import math
import random
import sys
import threading
from itertools import permutations, product

import numpy as np
import pytest

from stochtaylor import coefficients
from stochtaylor.coefficients import (
    WeightProfile,
    bar_coefficient,
    build_tensor,
    clear_caches,
    exact_norm,
    get_tensor,
    parseval_defect,
)
from stochtaylor.errors import (
    IndexPattern,
    accurate_sum,
    at_step,
    error_bound_kfact,
    exact_error,
    normalized_error,
)
from stochtaylor.planner import case_catalog


def _bar(profile, j):
    return float(bar_coefficient(profile, j))


def _prefactor(profile):
    k, L = len(profile), sum(profile)
    return 4.0 ** -(k + L)


def _weight(j):
    w = 1.0
    for jm in j:
        w *= 2 * jm + 1
    return w


def transcribe_pair(profile, p, equal):
    """Printed k = 2 formulas: plain squares, or squares plus the swap term."""
    norm = float(exact_norm(profile))
    pref = _prefactor(profile)
    total = 0.0
    for j1, j2 in product(range(p + 1), repeat=2):
        c = _bar(profile, (j1, j2))
        inner = c * c
        if equal:
            inner += c * _bar(profile, (j2, j1))
        total += _weight((j1, j2)) * inner
    return norm - pref * total


def transcribe_triple(profile, p, case):
    """Printed k = 3 formulas; case is '1', '2', '3.1', '3.2', or '3.3'."""
    norm = float(exact_norm(profile))
    pref = _prefactor(profile)
    total = 0.0
    for j1, j2, j3 in product(range(p + 1), repeat=3):
        c = _bar(profile, (j1, j2, j3))
        if case == "1":
            inner = c
        elif case == "2":
            inner = sum(_bar(profile, perm) for perm in permutations((j1, j2, j3)))
        elif case == "3.1":  # first two equal: swap positions 1,2
            inner = c + _bar(profile, (j2, j1, j3))
        elif case == "3.2":  # last two equal: swap positions 2,3
            inner = c + _bar(profile, (j1, j3, j2))
        elif case == "3.3":  # outer pair equal: swap positions 1,3
            inner = c + _bar(profile, (j3, j2, j1))
        else:
            raise AssertionError(case)
        total += _weight((j1, j2, j3)) * c * inner
    return norm - pref * total


def _perm_sum(profile, j, positions):
    """Sum of reduced coefficients over permutations of ``positions`` (0-based)."""
    total = 0.0
    for perm in permutations(positions):
        jj = list(j)
        for dst, src in zip(positions, perm):
            jj[dst] = j[src]
        total += _bar(profile, tuple(jj))
    return total


def _double_perm_sum(profile, j, pos_a, pos_b):
    total = 0.0
    for perm_a in permutations(pos_a):
        for perm_b in permutations(pos_b):
            jj = list(j)
            for dst, src in zip(pos_a, perm_a):
                jj[dst] = j[src]
            for dst, src in zip(pos_b, perm_b):
                jj[dst] = j[src]
            total += _bar(profile, tuple(jj))
    return total


def transcribe_blocks(profile, p, blocks):
    """Printed k = 4, 5 formulas: permutation sums over the given blocks."""
    norm = float(exact_norm(profile))
    pref = _prefactor(profile)
    k = len(profile)
    nontrivial = [tuple(b - 1 for b in blk) for blk in blocks if len(blk) > 1]
    total = 0.0
    for j in product(range(p + 1), repeat=k):
        c = _bar(profile, j)
        if not nontrivial:
            inner = c
        elif len(nontrivial) == 1:
            inner = _perm_sum(profile, j, nontrivial[0])
        else:
            inner = _double_perm_sum(profile, j, nontrivial[0], nontrivial[1])
        total += _weight(j) * c * inner
    return norm - pref * total


def _sig12(a, b):
    # 12 significant figures, with an absolute floor of a few ulp of the
    # kernel norms being cancelled (the error is a difference of O(1) terms)
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-15


class TestPairAgainstTranscription:
    @pytest.mark.parametrize("profile", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("p", range(7))
    def test_distinct(self, profile, p):
        got = normalized_error(profile, IndexPattern.distinct(2), p)
        assert _sig12(got, transcribe_pair(profile, p, equal=False))

    @pytest.mark.parametrize("profile", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("p", range(7))
    def test_equal(self, profile, p):
        got = normalized_error(profile, IndexPattern.all_equal(2), p)
        assert _sig12(got, transcribe_pair(profile, p, equal=True))

    def test_telescoped_closed_form(self):
        # distinct all-zero-weight pair: (T-t)^2 / (4 (2p+1))
        for p in (0, 1, 4, 17, 100):
            h = 0.73
            got = exact_error((0, 0), IndexPattern.distinct(2), p, h).value
            assert got == pytest.approx(h * h / (4 * (2 * p + 1)), rel=1e-13)

    def test_equal_pair_identically_zero(self):
        for p in range(7):
            assert normalized_error((0, 0), IndexPattern.all_equal(2), p) <= 1e-12


class TestTripleAgainstTranscription:
    CASES = {
        "1": IndexPattern.distinct(3),
        "2": IndexPattern.all_equal(3),
        "3.1": IndexPattern(3, [(1, 2), (3,)]),
        "3.2": IndexPattern(3, [(2, 3), (1,)]),
        "3.3": IndexPattern(3, [(1, 3), (2,)]),
    }

    @pytest.mark.parametrize("profile", [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, profile, case):
        for p in (0, 2, 5):
            got = normalized_error(profile, self.CASES[case], p)
            expect = transcribe_triple(profile, p, case)
            assert _sig12(got, max(expect, 0.0))

    def test_all_equal_zero_weight_vanishes(self):
        for p in range(7):
            assert normalized_error((0, 0, 0), IndexPattern.all_equal(3), p) <= 1e-12


class TestHigherMultiplicities:
    # one representative per published family
    K4_FAMILIES = [
        ((1,), (2,), (3,), (4,)),            # pairwise distinct
        ((1, 2, 3, 4),),                     # all equal
        ((1, 2), (3,), (4,)),                # one pair
        ((1, 2, 3), (4,)),                   # one triple
        ((1, 2), (3, 4)),                    # two pairs
        ((1, 4), (2, 3)),                    # two pairs, nested
    ]
    K5_FAMILIES = [
        ((1,), (2,), (3,), (4,), (5,)),
        ((1, 2, 3, 4, 5),),
        ((1, 2), (3,), (4,), (5,)),
        ((1, 2, 3), (4,), (5,)),
        ((1, 2, 3, 4), (5,)),
        ((1, 2), (3, 4), (5,)),
        ((1, 2, 3), (4, 5)),
    ]

    @pytest.mark.parametrize("blocks", K4_FAMILIES)
    def test_k4_family(self, blocks):
        profile = (0, 0, 0, 0)
        pattern = IndexPattern(4, blocks)
        for p in (0, 1, 3):
            got = normalized_error(profile, pattern, p)
            assert _sig12(got, max(transcribe_blocks(profile, p, blocks), 0.0))

    @pytest.mark.parametrize("blocks", K5_FAMILIES)
    def test_k5_family(self, blocks):
        profile = (0, 0, 0, 0, 0)
        pattern = IndexPattern(5, blocks)
        for p in (0, 2):
            got = normalized_error(profile, pattern, p)
            assert _sig12(got, max(transcribe_blocks(profile, p, blocks), 0.0))

    def test_degenerate_zero_cases(self):
        for k in (2, 3, 4, 5):
            for p in range(7):
                got = normalized_error((0,) * k, IndexPattern.all_equal(k), p)
                assert got <= 1e-12


class TestPublishedValues:
    def test_triple_error_values(self):
        # triple integral at cap 12 and step 0.011
        h = 0.011
        e = exact_error((0, 0, 0), IndexPattern.distinct(3), 12, h)
        assert e.normalized == pytest.approx(0.010154, abs=1e-6)
        assert e.value == pytest.approx(0.010154 * h**3, rel=1e-4)

    def test_weighted_pair_error_value(self):
        e = exact_error((0, 1), IndexPattern.all_equal(2), 4, 0.010)
        assert e.normalized == pytest.approx(0.000042, abs=1e-6)

    def test_quintuple_distinct_value(self):
        e = exact_error((0,) * 5, IndexPattern.distinct(5), 4, 1.0)
        assert e.normalized == pytest.approx(0.004209, abs=1e-6)


class TestFactorialBound:
    def test_pair_bound_closed_form(self):
        for p in (0, 3, 10):
            h = 0.42
            assert error_bound_kfact((0, 0), p, h) == pytest.approx(
                2 * h * h / (4 * (2 * p + 1)), rel=1e-12)

    def test_triple_bound_at_zero(self):
        assert error_bound_kfact((0, 0, 0), 0, 1.0) == pytest.approx(1 - 1 / 6, rel=1e-12)

    def test_bound_decreases_to_zero(self):
        prev = math.inf
        for p in range(21):
            b = error_bound_kfact((0, 0, 0), p, 1.0)
            assert 0 <= b <= prev
            prev = b
        assert prev < 0.04

    @pytest.mark.parametrize("profile,k", [
        ((0, 0), 2), ((0, 1), 2), ((1, 0), 2),
        ((0, 0, 0), 3), ((0, 0, 1), 3), ((0, 1, 0), 3), ((1, 0, 0), 3),
    ])
    def test_dominates_every_pattern(self, profile, k):
        patterns = [IndexPattern.distinct(k), IndexPattern.all_equal(k)]
        if k == 3:
            patterns += [IndexPattern(3, [(1, 2), (3,)]), IndexPattern(3, [(1, 3), (2,)])]
        for p in range(11):
            bound = error_bound_kfact(profile, p, 1.0)
            for pat in patterns:
                assert normalized_error(profile, pat, p) <= bound + 1e-14

    def test_dominates_high_multiplicity(self):
        for k in (4, 5):
            profile = (0,) * k
            pats = [IndexPattern.distinct(k), IndexPattern(k, [(1, 2)] + [(m,) for m in range(3, k + 1)])]
            for p in (0, 2, 4):
                bound = error_bound_kfact(profile, p, 1.0)
                for pat in pats:
                    assert normalized_error(profile, pat, p) <= bound + 1e-14

    @pytest.mark.parametrize("profile, top", [
        ((0, 0), 80), ((0, 1), 80), ((0, 0, 0), 40), ((0, 0, 1), 40), ((0,) * 4, 12), ((0,) * 5, 6),
    ])
    def test_bound_is_kfact_times_distinct_error_bitwise(self, profile, top):
        # one float reduction for the Parseval sum: the bound is exactly k! times
        # the distinct-pattern error, not a second sum that agrees to rounding
        k, e = len(profile), 2 * sum(profile) + len(profile)
        distinct = IndexPattern.distinct(k)
        for p in range(top + 1):
            for h in (1.0, 0.37):
                assert error_bound_kfact(profile, p, h) == (
                    math.factorial(k) * normalized_error(profile, distinct, p) * h**e)


class TestStructure:
    def test_monotone_in_cap(self):
        for profile, pattern in [
            ((0, 0, 0), IndexPattern.distinct(3)),
            ((0, 0, 0), IndexPattern(3, [(1, 3), (2,)])),
            ((0, 1), IndexPattern.all_equal(2)),
            ((1, 0, 0), IndexPattern(3, [(1, 2), (3,)])),
        ]:
            prev = math.inf
            for p in range(11):
                e = normalized_error(profile, pattern, p)
                assert e <= prev + 1e-15
                prev = e

    def test_error_within_variance(self):
        for profile, k in [((0, 0), 2), ((0, 0, 0), 3), ((0, 1, 0), 3)]:
            cap = float(exact_norm(profile))
            for p in (0, 3):
                for pat in (IndexPattern.distinct(k), IndexPattern.all_equal(k)):
                    v = normalized_error(profile, pat, p)
                    assert 0.0 <= v <= cap + 1e-15

    def test_pattern_profile_mismatch(self):
        with pytest.raises(ValueError):
            exact_error((0, 0), IndexPattern.distinct(3), 1, 1.0)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError, match=repr(step)):
            exact_error((0, 0), IndexPattern.distinct(2), 1, step)
        with pytest.raises(ValueError, match=repr(step)):
            error_bound_kfact((0, 0), 1, step)

    def test_step_power_underflows_to_zero_and_overflow_names_the_step(self):
        distinct = IndexPattern.distinct(3)
        e = exact_error((0, 0, 0), distinct, 2, 1e-200)  # (1e-200)^3 underflows
        assert e.value == 0.0 == error_bound_kfact((0, 0, 0), 2, 1e-200)
        assert e.normalized == normalized_error((0, 0, 0), distinct, 2) > 0
        for fn in (lambda: exact_error((0, 0), IndexPattern.distinct(2), 5, 1e308),
                   lambda: error_bound_kfact((0, 0), 5, 1e308)):
            with pytest.raises(ValueError, match=r"T_minus_t=1e\+308 \*\* 2 overflows"):
                fn()
        # a finite power whose product with the error overflows is rejected too
        with pytest.raises(ValueError, match=r"T_minus_t=1e\+308 \*\* 1 overflows"):
            at_step(120.0, WeightProfile((0,)), 1e308)

    @pytest.mark.parametrize("fn", [
        lambda: error_bound_kfact((0, 0), -1, 1.0),
        lambda: normalized_error((0, 0), IndexPattern.distinct(2), -1),
        lambda: get_tensor((0, 0), 3).squared_sum_float(-1),
        lambda: parseval_defect((0, 0), -1),
    ], ids=["error_bound_kfact", "normalized_error", "squared_sum_float", "parseval_defect"])
    def test_negative_cap_rejected_with_tensor_cached(self, fn):
        # a cached (0,0) tensor must not turn p = -1 into its top level sum
        get_tensor((0, 0), 3)
        with pytest.raises(ValueError, match="p=-1"):
            fn()

    def test_time_components_rejected(self):
        with pytest.raises(ValueError):
            IndexPattern.from_indices((0, 1))

    def test_fractional_indices_rejected(self):
        with pytest.raises(ValueError, match="Wiener component indices must be integers, got 1.2"):
            IndexPattern.from_indices([1.2, 1.9])
        assert IndexPattern.from_indices([np.int64(1), 2.0]) == IndexPattern.distinct(2)

    def test_pattern_construction(self):
        pat = IndexPattern.from_indices((3, 1, 3, 2, 1))
        assert set(pat.blocks) == {(1, 3), (2, 5), (4,)}
        assert pat.group_size() == 4
        with pytest.raises(ValueError):
            IndexPattern(3, [(1, 2)])
        with pytest.raises(ValueError):
            IndexPattern(3, [(1, 2), (2, 3)])

    def test_quadruple_two_pair_cases_differ(self):
        # equal-pair/equal-pair cases are genuinely position-dependent
        p = 3
        e1 = normalized_error((0,) * 4, IndexPattern(4, [(1, 2), (3, 4)]), p)
        e2 = normalized_error((0,) * 4, IndexPattern(4, [(1, 3), (2, 4)]), p)
        e3 = normalized_error((0,) * 4, IndexPattern(4, [(1, 4), (2, 3)]), p)
        assert abs(e1 - e2) > 1e-6 or abs(e1 - e3) > 1e-6

    def test_accurate_sum_matches_fsum(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
        assert accurate_sum(arr) == pytest.approx(math.fsum(arr.tolist()), rel=1e-15)

    def test_clear_caches_drops_errors(self, monkeypatch):
        # private empty caches, so clearing them leaves the rest of the suite warm
        for name in ("_prefix_cache", "_bonnet_cache", "_tensor_cache"):
            monkeypatch.setattr(coefficients, name, {})
        profile, pattern = (0, 1, 0), IndexPattern.distinct(3)
        first = normalized_error(profile, pattern, 2)
        parseval_defect(profile, 2)
        builds = []
        build_tensor = coefficients.build_tensor

        def counting_build_tensor(prof, p):
            builds.append((prof, p))
            return build_tensor(prof, p)

        monkeypatch.setattr(coefficients, "build_tensor", counting_build_tensor)
        assert normalized_error(profile, pattern, 2) == first
        assert builds == []  # warm: served from the tensor cache
        memo = coefficients._tensor_cache[profile]._sums
        assert memo  # the box sums live on the cached tensor
        clear_caches()
        assert coefficients._tensor_cache == {}
        assert normalized_error(profile, pattern, 2) == first
        assert builds == [((0, 1, 0), 2)]  # cold again: recomputed from a new tensor
        assert coefficients._tensor_cache[profile]._sums is not memo

    def test_error_memo_is_exact(self, monkeypatch):
        # every permutation's box sum is memoized per (profile, cap, axes); the
        # memoized error must equal the direct sum bit for bit, whatever the probe
        # order, after clear_caches() and with a larger tensor cached first
        for name in ("_prefix_cache", "_bonnet_cache", "_tensor_cache"):
            monkeypatch.setattr(coefficients, name, {})
        cases = [(pr, pat) for letter in "abcd" for _, pr, pat in case_catalog(3, letter)]
        cases += [(pr, pat) for _, pr, pat in case_catalog(4)]
        boxes = {pr: build_tensor(pr, 6).scaled_array() for pr, _ in cases}
        clear_caches()

        def oracle(profile, pattern, p):
            arr, total = boxes[profile][(slice(0, p + 1),) * profile.k], 0.0
            for axes in pattern.axis_permutations():
                total += accurate_sum(arr * np.transpose(arr, axes))
            return max(float(exact_norm(profile)) - total, 0.0)

        expected = {(pr, pat, p): oracle(pr, pat, p) for pr, pat in cases for p in range(7)}
        rng = random.Random(23)
        for warm in ("cold", "cleared", "larger"):
            if warm == "larger":
                for pr, _ in cases:
                    get_tensor(pr, 9)
            probes = list(expected)
            rng.shuffle(probes)
            for key in probes:
                assert normalized_error(*key) == expected[key], (warm, key)
            clear_caches()
        # threads grow the tensors and fill their memos at once
        probes, results = list(expected), {}

        def run(offset):
            for key in probes[offset::8]:
                results[key] = normalized_error(*key)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected

    def test_result_fields(self):
        e = exact_error((0, 1), IndexPattern.distinct(2), 3, 0.5)
        assert e.p == 3
        assert e.T_minus_t == 0.5
        assert e.profile == (0, 1)
        assert e.normalized == pytest.approx(e.value / 0.5**4, rel=1e-15)
