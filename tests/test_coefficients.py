import functools
import hashlib
import math
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

import stochtaylor
from stochtaylor import coefficients
from stochtaylor.coefficients import (
    MAX_DEGREE,
    WeightProfile,
    bar_coefficient,
    build_tensor,
    exact_norm,
    get_tensor,
    parseval_defect,
)
from stochtaylor.errors import IndexPattern, normalized_error


def quadrature_bar(exponents, j):
    """Independent oracle: nested Gauss-Legendre over the ordered simplex.

    Integrates prod_m P_{j_m}(x_m) (1+x_m)^{l_m} over
    -1 <= x_1 <= ... <= x_k <= 1 (innermost first), exactly for polynomials
    since the node count exceeds every degree involved.  Each level runs on
    every node of the levels outside it at once; P_j comes from numpy.
    """
    nodes, weights = np.polynomial.legendre.leggauss(40)

    def rec(m, upper):
        # integral over x_m in [-1, u] of factor * rec(m-1, x_m), for every
        # entry u of ``upper``; split so no array exceeds 40^3 entries
        if upper.size > 40**2:
            return np.stack([rec(m, u) for u in upper])
        u = upper[..., None]
        x = 0.5 * (u + 1.0) * nodes + 0.5 * (u - 1.0)
        w = 0.5 * (u + 1.0) * weights
        fac = legval(x, [0] * j[m] + [1]) * (1.0 + x) ** exponents[m]
        if m > 0:
            fac = fac * rec(m - 1, x)
        return (w * fac).sum(axis=-1)

    sign = (-1) ** sum(exponents)
    return sign * float(rec(len(j) - 1, np.array(1.0)))


def shifted_legendre(j):
    """Monomial oracle: integer coefficients of P~_j(u) = P_j(2u - 1), entry i that of u^i,
    ``(-1)**(j+i) * C(j, i) * C(j+i, i)``.  Normalization: value 1 at u = 1."""
    return tuple((-1) ** (j + i) * math.comb(j, i) * math.comb(j + i, i) for i in range(j + 1))


def scaled_coefficient(profile, j, T_minus_t):
    """Scalar oracle: ``C = prod_m sqrt(2 j_m + 1) * (T-t)^(k/2 + sum l) * 2^-(k + sum l) *
    barC``, rounded as ``build_tensor`` rounds its fiber entry, so at ``T_minus_t = 1`` it
    is the tensor's entry."""
    profile = WeightProfile(profile)
    # the exact (-1)^L n / den that the store rounds, then its roots in axis order
    c = float(bar_coefficient(profile, j) / 2 ** (profile.k + profile.total_weight))
    c = math.prod((math.sqrt(2 * jm + 1) for jm in j), start=c)
    return c * T_minus_t ** (profile.norm_exponent / 2)


@functools.cache
def prefix_poly(steps):
    """Monomial oracle: the running simplex integral after the (l, j) pairs ``steps``,
    innermost first, as ``(nums, den)``: ``sum_i nums[i] u^i / den`` in lowest terms."""
    if not steps:
        return (1,), 1
    inner, den = prefix_poly(steps[:-1])
    l, j = steps[-1]
    prod = [0] * (len(inner) + j)
    for a, ca in enumerate(shifted_legendre(j)):
        for b, cb in enumerate(inner):
            prod[a + b] += ca * cb
    # the integrand's u^i term is prod[i - l]; it integrates to u^(i+1)/(i+1)
    scale = math.lcm(*range(l + 1, l + len(prod) + 1))
    nums = [0] * (l + 1) + [c * (scale // (i + l + 1)) for i, c in enumerate(prod)]
    den *= scale
    g = math.gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def moment_dot(nums, l, j):
    """Monomial oracle: ``sum_i nums[i] * int_0^1 u^(i+l) P~_j(u) du`` as
    (numerator, denominator).

    The moment of u^n is ``n!^2 / ((n-j)! (n+j+1)!)`` for n >= j and zero
    below (orthogonality); consecutive moments differ by the factor
    ``(n+1)^2 / ((n+1-j) (n+j+2))``, so Horner's rule sums from the top.
    """
    lo, hi = max(j, l), len(nums) - 1 + l
    if hi < lo:
        return 0, 1
    num, den = nums[hi - l], 1
    for n in range(hi - 1, lo - 1, -1):
        q = (n + 1 - j) * (n + j + 2)
        num = nums[n - l] * den * q + (n + 1) ** 2 * num
        den *= q
    f = math.factorial(lo)
    return num * f * f, den * math.factorial(lo - j) * math.factorial(lo + j + 1)


def oracle_bar(profile, j):
    """One reduced coefficient by the per-entry Horner sum over the prefix polynomial."""
    nums, den = prefix_poly(tuple(zip(profile[:-1], j[:-1])))
    num, mden = moment_dot(nums, profile[-1], j[-1])
    k, L = len(profile), sum(profile)
    return Fraction((-1) ** L * 2 ** (k + L) * num, den * mden)


def kept_prefixes(profile, p):
    """The (k-1)-prefixes a cap-p build reads: all of them, but for an all-zero profile with
    k >= 4 only those with a_(k-1) <= a_2 or a_1 > max(a_2 .. a_(k-1)); time reversal gives
    the others."""
    box = list(product(range(p + 1), repeat=len(profile) - 1))
    if len(profile) < 4 or any(profile):
        return box
    return [a for a in box if a[-1] <= a[1] or a[0] > max(a[1:])]


@pytest.fixture
def cold_caches(monkeypatch):
    # private empty caches stand in for clear_caches() and keep the rest of
    # the suite warm
    for name in ("_prefix_cache", "_bonnet_cache", "_tensor_cache"):
        monkeypatch.setattr(coefficients, name, {})


class TestBarCoefficient:
    def test_ordered_simplex_volume(self):
        assert bar_coefficient((0, 0, 0), (0, 0, 0)) == Fraction(4, 3)
        assert bar_coefficient((0, 0), (0, 0)) == Fraction(2)
        assert bar_coefficient((0,) * 5, (0,) * 5) == Fraction(4, 15)

    def test_weighted_examples(self):
        assert bar_coefficient((1, 0), (0, 0)) == Fraction(-4, 3)
        assert bar_coefficient((0, 1), (0, 0)) == Fraction(-8, 3)

    def test_antisymmetry_of_pair_offdiagonal(self):
        # C_{01} + C_{10} = 0 when exactly one degree is zero
        assert bar_coefficient((0, 0), (0, 1)) + bar_coefficient((0, 0), (1, 0)) == 0

    @pytest.mark.parametrize("exponents,j", [
        ((0, 0), (2, 3)),
        ((0, 1), (1, 2)),
        ((1, 0), (3, 1)),
        ((0, 0, 0), (1, 2, 0)),
        ((0, 0, 1), (2, 0, 1)),
        ((0, 1, 0), (0, 2, 2)),
        ((1, 0, 0), (1, 1, 3)),
        ((0, 0, 0, 0), (1, 0, 2, 1)),
        ((0, 0, 0, 0, 0), (0, 1, 0, 1, 0)),
    ])
    def test_against_quadrature_oracle(self, exponents, j):
        got = float(bar_coefficient(exponents, j))
        expect = quadrature_bar(exponents, j)
        assert got == pytest.approx(expect, abs=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bar_coefficient((0, 0), (0,))
        with pytest.raises(ValueError):
            bar_coefficient((0, 0), (0, -1))
        with pytest.raises(ValueError):
            WeightProfile(())
        with pytest.raises(ValueError):
            WeightProfile((0,) * 7)
        with pytest.raises(ValueError):
            WeightProfile((-1,))
        with pytest.raises(ValueError, match=r"weight exponents must be in 0..200, got \(0, 201\)"):
            WeightProfile((0, 201))
        assert WeightProfile((0, 200)) == (0, 200)

    def test_inner_degree_ceiling(self, cold_caches):
        # an inner degree above the ceiling fails fast; the outermost one reads a zero
        for profile, j in [((0, 0), (201, 0)), ((0, 0, 0), (0, 250, 0))]:
            with pytest.raises(ValueError, match=f"degree {max(j)} above practical ceiling "
                                                 f"{MAX_DEGREE}"):
                bar_coefficient(profile, j)
        assert coefficients._prefix_cache == {}
        assert bar_coefficient((0, 0), (0, 201)) == 0

    def test_fractional_weights_rejected(self):
        with pytest.raises(ValueError, match="weight exponents must be integers, got 0.5"):
            WeightProfile((0.5, 1.9))
        profile = WeightProfile((np.int64(1), 2.0, 0))
        assert profile == (1, 2, 0) and all(type(l) is int for l in profile)


def store_coefficient(profile, j, T_minus_t):
    """The tensor's float for ``j`` times the step power the samplers apply."""
    profile = WeightProfile(profile)
    arr = get_tensor(profile, max(j)).scaled_array()
    return arr[tuple(j)] * T_minus_t ** (profile.norm_exponent / 2)


class TestScaling:
    def test_triple_leading(self):
        assert store_coefficient((0, 0, 0), (0, 0, 0), 1.0) == pytest.approx(1 / 6)

    def test_pair_leading(self):
        assert store_coefficient((0, 0), (0, 0), 1.0) == pytest.approx(0.5)

    def test_single(self):
        assert store_coefficient((0,), (0,), 4.0) == pytest.approx(2.0)

    # the published scaling laws, one per weighted family:
    # prefactor denominators 8, 8, 8, 16, 16, 16, 16, 32 and step powers
    # 3/2, 2, 2, 2, 5/2, 5/2, 5/2, 5/2
    @pytest.mark.parametrize("profile,denom,power", [
        ((0, 0, 0), 8, 1.5),
        ((0, 1), 8, 2.0),
        ((1, 0), 8, 2.0),
        ((0, 0, 0, 0), 16, 2.0),
        ((0, 0, 1), 16, 2.5),
        ((0, 1, 0), 16, 2.5),
        ((1, 0, 0), 16, 2.5),
        ((0, 0, 0, 0, 0), 32, 2.5),
    ])
    def test_published_scaling_laws(self, profile, denom, power):
        rng = random.Random(hash(profile) & 0xFFFF)
        k = len(profile)
        h = 0.37
        for _ in range(5):
            j = tuple(rng.randrange(0, 4) for _ in range(k))
            root = math.prod(math.sqrt(2 * jm + 1) for jm in j)
            expect = root / denom * h**power * float(bar_coefficient(profile, j))
            assert store_coefficient(profile, j, h) == pytest.approx(expect, rel=1e-14)

    def test_scaling_in_step_length(self):
        rng = random.Random(3)
        for profile in [(0,), (1,), (0, 0), (0, 1), (0, 0, 0), (1, 0, 0)]:
            k, L = len(profile), sum(profile)
            j = tuple(rng.randrange(0, 3) for _ in range(k))
            lam = 0.123
            c1 = store_coefficient(profile, j, 1.0)
            assert store_coefficient(profile, j, lam) == pytest.approx(
                lam ** (k / 2 + L) * c1, rel=1e-14)

    @pytest.mark.parametrize("profile,p", [
        ((0, 0), 9), ((0, 1), 9), ((1, 0, 2), 4), ((0, 0, 0), 4), ((0,) * 4, 2), ((2, 1), 5),
        ((0, 0, 20), 3)])
    def test_scalar_route_is_the_store_bit_for_bit(self, profile, p):
        # one fiber read, rounded as build_tensor rounds it: n / den, then the roots in
        # axis order, then the step power (1.0 here)
        arr = get_tensor(profile, p).scaled_array()
        for j in product(range(p + 1), repeat=len(profile)):
            assert scaled_coefficient(profile, j, 1.0).hex() == float(arr[j]).hex(), j


class TestExactNorm:
    @pytest.mark.parametrize("profile,expect", [
        ((0, 0), Fraction(1, 2)),
        ((0, 1), Fraction(1, 4)),
        ((1, 0), Fraction(1, 12)),
        ((0, 0, 0), Fraction(1, 6)),
        ((0, 0, 1), Fraction(1, 10)),
        ((0, 1, 0), Fraction(1, 20)),
        ((1, 0, 0), Fraction(1, 60)),
        ((0, 0, 0, 0), Fraction(1, 24)),
        ((0, 0, 0, 0, 0), Fraction(1, 120)),
        ((0,), Fraction(1)),
        ((1,), Fraction(1, 3)),
        ((2,), Fraction(1, 5)),
    ])
    def test_published_constants(self, profile, expect):
        assert exact_norm(profile) == expect

    def test_norm_positive_and_exponent(self):
        assert exact_norm((0, 1, 0)) > 0
        assert WeightProfile((0, 1, 0)).norm_exponent == 5


class TestTensor:
    def test_counts(self):
        for profile, p, n in [((0, 0), 0, 1), ((0, 0, 0), 1, 8), ((0,) * 5, 2, 243)]:
            t = build_tensor(profile, p)
            assert t.scaled_array().shape == (p + 1,) * len(profile)
            assert len(t.values) == n

    def test_entries(self):
        assert build_tensor((0, 0), 0).values[(0, 0)] == Fraction(2)
        assert build_tensor((0, 0, 0), 1).values[(0, 0, 0)] == Fraction(4, 3)
        assert build_tensor((0,) * 5, 0).values[(0,) * 5] == Fraction(4, 15)

    def test_clear_caches_empties_every_module_dict(self, cold_caches):
        # every module-level dict is a cache, found by scanning, so one added
        # later and left out of clear_caches() fails here
        profile = (0, 1, 0)
        build_tensor(profile, 1)
        for q in range(4):
            get_tensor(profile, q).values
        parseval_defect(profile, 3)
        bar_coefficient(profile, (5, 1, 2))
        normalized_error(profile, IndexPattern.distinct(3), 3)
        caches = {name: value for name, value in vars(coefficients).items()
                  if isinstance(value, dict) and not name.startswith("__")}
        assert {"_prefix_cache", "_bonnet_cache", "_tensor_cache"} <= caches.keys()
        assert all(caches.values())
        coefficients.clear_caches()
        assert not any(caches.values())

    def test_store_holds_the_float_array_only(self):
        t = build_tensor((0, 1), 2)
        # one float array of the whole fibers, and a memo of float box sums
        assert set(vars(t)) == {"profile", "p", "_store", "_sums"}
        assert t._store.dtype == np.float64 and t._sums == {}
        assert np.shares_memory(t.scaled_array(), t._store)
        t.squared_sum_float(2)
        assert [type(v) for v in t._sums.values()] == [float]
        assert t.values is not t.values  # recomputed on each access, never kept
        assert t.values == {j: bar_coefficient((0, 1), j) for j in product(range(3), repeat=2)}

    @pytest.mark.parametrize("profile,p", [((0, 0, 0), 8), ((0, 1), 6), ((0,) * 4, 3)])
    def test_builds_make_no_fraction(self, cold_caches, monkeypatch, profile, p):
        expected = build_tensor(profile, p).scaled_array().tobytes()

        def no_fraction(*args):
            raise AssertionError("build_tensor made a Fraction")

        coefficients.clear_caches()
        monkeypatch.setattr(coefficients, "Fraction", no_fraction)
        assert build_tensor(profile, p).scaled_array().tobytes() == expected
        coefficients.clear_caches()
        for q in range(p + 1):
            grown = get_tensor(profile, q)
        assert grown.scaled_array().tobytes() == expected

    def test_warm_rebuild_retains_only_floats(self, cold_caches):
        # the float store of (0,0,0) at p = 30, 31^2 fibers of up to 63 entries,
        # is 31^2 * 63 * 8 B = 0.46 MiB
        build_tensor((0, 0, 0), 30)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tensor = build_tensor((0, 0, 0), 30)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tensor.p == 30
        assert retained < 2**20

    @pytest.mark.parametrize("profile,p", [
        ((0, 0, 0), 10), ((0,) * 4, 4), ((1, 0, 2), 4),
        ((0,) * 5, 4), ((0,) * 6, 3), ((0, 0, 1, 0), 4),
    ])
    def test_floats_are_the_rounded_oracle_bitwise(self, cold_caches, profile, p):
        # float(barC) times the roots in axis order times 2^-(k+L): pins the
        # rounding and the sign of every zero (a negated float zero is -0.0),
        # also of the entries an all-zero k >= 4 build copies by time reversal,
        # built cold, grown shell by shell and grown in one jump from cap 2
        k, L = len(profile), sum(profile)
        root = np.sqrt(2.0 * np.arange(p + 1) + 1.0)
        expected = np.empty((p + 1,) * k)
        for j in product(range(p + 1), repeat=k):
            value = float(oracle_bar(profile, j))
            for jm in j:
                value = value * root[jm]
            expected[j] = value * 2.0 ** -(k + L)
        for caps in ([p], range(p + 1), [2, p]):
            coefficients.clear_caches()
            for q in caps:
                tensor = get_tensor(profile, q)
            assert tensor.scaled_array().tobytes() == expected.tobytes(), caps
            assert not np.signbit(tensor._store[tensor._store == 0]).any(), caps

    def test_entry_ceiling(self, monkeypatch):
        # a store above the 10^8 ceiling, or a cap above the degree ceiling, fails
        # before any entry is computed
        calls = []
        monkeypatch.setattr(coefficients, "_fiber", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"store shape \(41, 41, 41, 41, 165\) = 466250565 "
                                             r"floats exceeds ceiling 100000000"):
            build_tensor((0,) * 5, 40)
        with pytest.raises(ValueError, match="Legendre degree ceiling 200"):
            build_tensor((0, 0, 0), 300)
        assert calls == []

    def test_ceiling_counts_the_stored_fibers(self, monkeypatch):
        # the box 31^5 = 28 629 151 is under the ceiling, but the store keeps every
        # prefix's whole fiber: 31^4 x 125 floats; p = 29 and p = 74 are the last
        # caps allowed for k = 5 and k = 4
        calls = []
        monkeypatch.setattr(coefficients, "_fiber", lambda *args: calls.append(args))
        for route in (build_tensor, parseval_defect):
            with pytest.raises(ValueError, match=r"store shape \(31, 31, 31, 31, 125\) = "
                                                 r"115440125 floats exceeds ceiling 100000000"):
                route((0,) * 5, 30)
            with pytest.raises(ValueError, match=r"store shape \(76, 76, 76, 229\)"):
                route((0,) * 4, 75)
        assert calls == []
        assert coefficients._check_store(WeightProfile((0,) * 5), 29) == (30,) * 4 + (121,)
        assert coefficients._check_store(WeightProfile((0,) * 4), 74) == (75,) * 3 + (226,)

    def test_scaled_array_matches_scalar_path(self):
        t = get_tensor((0, 1), 3)
        arr = t.scaled_array()
        for j1 in range(4):
            for j2 in range(4):
                assert arr[j1, j2] == pytest.approx(
                    scaled_coefficient((0, 1), (j1, j2), 1.0), rel=1e-14)


class TestParseval:
    def test_pair_defect_closed_form(self):
        # I_2 - sum C^2 = 1/(4(2p+1)) exactly, all-zero-weight pair
        for p in (0, 1, 5, 20, 50):
            assert parseval_defect((0, 0), p) == Fraction(1, 4 * (2 * p + 1))

    def test_s50_value(self):
        assert exact_norm((0, 0)) - parseval_defect((0, 0), 50) == Fraction(1, 2) - Fraction(1, 404)

    @pytest.mark.parametrize("profile", [(0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 0, 1)])
    def test_monotone_and_bounded(self, profile):
        # the sum of squares grows with p and stays below the kernel norm
        prev = exact_norm(profile)
        for p in range(7):
            d = parseval_defect(profile, p)
            assert 0 <= d <= prev
            prev = d

    def test_defect_leaves_cached_tensor_unchanged(self):
        profile = (0, 1, 1)
        tensor = get_tensor(profile, 4)
        before, floats = dict(vars(tensor)), tensor.scaled_array().tobytes()
        for p in (4, 2, 0):
            parseval_defect(profile, p)
        assert get_tensor(profile, 4) is tensor
        assert vars(tensor).keys() == before.keys()
        assert all(vars(tensor)[name] is value for name, value in before.items())
        assert tensor.scaled_array().tobytes() == floats

    def test_defect_rejects_before_any_entry(self, monkeypatch):
        calls = []
        monkeypatch.setattr(coefficients, "_fiber", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="cap p=300 above the Legendre degree ceiling 200 "
                                             "for multiplicity 3"):
            parseval_defect((0, 0, 0), 300)
        with pytest.raises(ValueError, match=r"store shape \(41, 41, 41, 41, 165\) = 466250565 "
                                             r"floats exceeds ceiling 100000000"):
            parseval_defect((0,) * 5, 40)
        assert calls == []

    @pytest.mark.parametrize("profile,p", [
        ((0, 0, 1), 5), ((1, 0, 2), 4), ((0, 1, 0, 0), 3), ((0,) * 5, 3)])
    def test_defect_matches_tensor_values(self, profile, p):
        # the two exact routes: C_j^2 = prod(2 j_m + 1) (barC_j / 2^(k+L))^2 at T - t = 1
        k, L = len(profile), sum(profile)
        squares = sum(math.prod(2 * jm + 1 for jm in j) * (v / 2 ** (k + L)) ** 2
                      for j, v in get_tensor(profile, p).values.items() if max(j) <= p)
        assert parseval_defect(profile, p) == exact_norm(profile) - squares

    def test_concurrent_defects_agree(self, cold_caches):
        # threads fill one profile's prefix moments and Bonnet pairs at once; no
        # thread may read another's half-extended pair
        caps = [3, 7, 5, 9, 1, 8] * 2
        results = {}

        def run(i, p):
            results[i] = parseval_defect((0, 0), p)

        threads = [threading.Thread(target=run, args=item) for item in enumerate(caps)]
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
        assert results == {i: Fraction(1, 4 * (2 * p + 1)) for i, p in enumerate(caps)}

    def test_finite_expansion_k1(self):
        # single integrals terminate: barC_j = 0 for j > l
        for l in (0, 1, 2, 3):
            for j in range(l + 1, l + 8):
                assert bar_coefficient((l,), (j,)) == 0

    def test_published_single_expansions(self):
        # closed forms for the three single integrals
        h = 1.7
        assert scaled_coefficient((0,), (0,), h) == pytest.approx(math.sqrt(h))
        assert scaled_coefficient((1,), (0,), h) == pytest.approx(-h**1.5 / 2)
        assert scaled_coefficient((1,), (1,), h) == pytest.approx(-h**1.5 / (2 * math.sqrt(3)))
        assert scaled_coefficient((2,), (0,), h) == pytest.approx(h**2.5 / 3)
        assert scaled_coefficient((2,), (1,), h) == pytest.approx(h**2.5 * math.sqrt(3) / 6)
        assert scaled_coefficient((2,), (2,), h) == pytest.approx(h**2.5 / (6 * math.sqrt(5)))

    def test_variance_identity_weighted_single(self):
        # sum of squared coefficients equals the second moment (T-t)^3/3
        h = 0.83
        total = sum(scaled_coefficient((1,), (j,), h) ** 2 for j in range(2))
        assert total == pytest.approx(h**3 / 3, rel=1e-14)


class TestFiberKernel:
    @pytest.mark.parametrize("profile,p", [
        ((0, 1), 9), ((1, 0), 9), ((2, 1), 6), ((0, 0), 12),
        ((0, 0, 1), 5), ((1, 0, 2), 4), ((0, 1, 0), 5),
        ((0, 0, 0, 1), 3), ((1, 0, 1, 0), 3),
        ((0, 1, 0, 0, 1), 2), ((2, 0, 0, 0, 0), 2),
    ])
    def test_every_entry_matches_monomial_oracle(self, cold_caches, profile, p):
        values = build_tensor(profile, p).values
        assert len(values) == (p + 1) ** len(profile)
        for j, value in values.items():
            assert value == oracle_bar(profile, j), j
            assert bar_coefficient(profile, j) == value

    @pytest.mark.parametrize("profile,p", [((0, 0, 0), 12), ((0,) * 4, 6)])
    def test_grown_shell_by_shell_matches_oracle_and_cold_build(self, cold_caches, profile, p):
        for q in range(p + 1):
            grown = get_tensor(profile, q)
        for j, value in grown.values.items():
            assert value == oracle_bar(profile, j), j
        coefficients.clear_caches()
        cold = build_tensor(profile, p)
        assert cold.values == grown.values
        assert cold.scaled_array().tobytes() == grown.scaled_array().tobytes()

    @pytest.mark.parametrize("profile,p", [
        ((0, 0, 0), 8), ((0,) * 4, 5), ((0, 0, 3), 6), ((0,) * 5, 4), ((0, 0, 1, 0), 4),
    ])
    def test_growth_reads_each_fiber_once(self, cold_caches, monkeypatch, profile, p):
        # a tensor keeps every read prefix's whole fiber, so a one-shell growth reads
        # only the prefixes with a new degree, and of an all-zero k >= 4 profile only
        # the kept ones; each read leaves _prefix_cache
        reads, fiber = [], coefficients._fiber

        def spy(prof, prefix):
            reads.append(prefix)
            return fiber(prof, prefix)

        monkeypatch.setattr(coefficients, "_fiber", spy)
        for q in range(p + 1):
            grown = get_tensor(profile, q)
        assert sorted(reads) == kept_prefixes(profile, p)
        leaves = {tuple(zip(profile, a)) for a in reads}
        assert coefficients._prefix_cache and not leaves & coefficients._prefix_cache.keys()
        coefficients.clear_caches()
        cold = build_tensor(profile, p)
        assert cold.scaled_array().tobytes() == grown.scaled_array().tobytes()
        assert cold._store.tobytes() == grown._store.tobytes()

    @pytest.mark.parametrize("profile,p,prefixes", [
        ((0, 0, 0), 8, 90), ((0,) * 4, 5, 188), ((0,) * 4, 15, 3008), ((0,) * 5, 6, 1946),
    ])
    def test_one_gcd_per_prefix(self, cold_caches, monkeypatch, profile, p, prefixes):
        # a cold build computes each shorter prefix of the box once, sum_{m<k-1} (p + 1)^m
        # of them, and each kept (k-1)-prefix; each prefix's moments cost one pass and
        # one _reduced
        calls, reduced = [], coefficients._reduced

        def spy(nums, den):
            calls.append(len(nums))
            return reduced(nums, den)

        monkeypatch.setattr(coefficients, "_reduced", spy)
        build_tensor(profile, p)
        shorter = sum((p + 1) ** m for m in range(1, len(profile) - 1))
        assert len(calls) == prefixes == shorter + len(kept_prefixes(profile, p))

    def test_exact_box_routes_drop_every_leaf(self, cold_caches):
        # the build, parseval_defect and values read each (k-1)-prefix once and keep
        # no leaf moments; the shorter prefixes stay for a growth
        profile = (0, 0, 0)
        build_tensor(profile, 40)
        parseval_defect(profile, 40)
        assert get_tensor(profile, 6).values
        assert coefficients._prefix_cache
        assert not [s for s in coefficients._prefix_cache if len(s) == len(profile) - 1]

    def test_cold_bar_coefficient_reads_the_moments(self, cold_caches):
        rng = random.Random(5)
        for _ in range(30):
            profile = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(1, 6)))
            j = tuple(rng.randrange(0, 9) for _ in profile)
            assert bar_coefficient(profile, j) == oracle_bar(profile, j)
        # descending inner degrees land below each parent's stored Bonnet pair
        for j in product(range(6, -1, -1), repeat=3):
            assert bar_coefficient((1, 0, 1), j) == oracle_bar((1, 0, 1), j), j
        # each parent keeps one pair (j, F_{j-1}, F_j) of prefix moment vectors, no list
        assert coefficients._prefix_cache and coefficients._bonnet_cache
        assert all(type(i) is int and len(prev) == len(cur) == 2
                   and len(cur[0]) == len(prev[0]) + (i > 0)
                   for i, prev, cur in coefficients._bonnet_cache.values())

    @pytest.mark.parametrize("k,p", [(2, 10), (3, 7), (4, 4)])
    def test_reversal_identity(self, k, p):
        # u -> 1 - u maps the ordered simplex to itself reversed and
        # P~_j(1 - u) = (-1)^j P~_j(u), so zero weights give C_j = (-1)^|j| C_rev(j);
        # this checks the oracle, test_values_satisfy_reversal the kernel
        zero = (0,) * k
        for j in product(range(p + 1), repeat=k):
            assert oracle_bar(zero, j) == (-1) ** sum(j) * oracle_bar(zero, j[::-1])
        # a weight breaks it
        weighted = (0,) * (k - 1) + (1,)
        assert any(oracle_bar(weighted, j) != (-1) ** sum(j) * oracle_bar(weighted, j[::-1])
                   for j in product(range(3), repeat=k))

    @pytest.mark.parametrize("k,p", [(4, 6), (5, 4), (6, 3)])
    def test_values_satisfy_reversal(self, cold_caches, k, p):
        # the identity an all-zero k >= 4 build copies its skipped entries by, on the exact
        # values, which read every fiber
        values = build_tensor((0,) * k, p).values
        assert len(values) == (p + 1) ** k
        assert all(v == (-1) ** sum(j) * values[j[::-1]] for j, v in values.items())

    @pytest.mark.parametrize("profile", [(0, 1, 0), (2,), (1, 0, 0, 1), (0, 0, 0)])
    def test_degree_zero_rule(self, cold_caches, profile):
        # the outermost integrand u^l_k F has degree sum_{m<k} (j_m + 1) + sum l; its
        # fiber holds its moments up to that degree, nonzero at the top, which times
        # (-1)^L 2^(k+L) are the coefficients; a last degree above it is zero
        k, L, p = len(profile), sum(profile), 5
        values = build_tensor(profile, p).values
        for prefix in product(range(p + 1), repeat=k - 1):
            top = sum(prefix) + k - 1 + L
            nums, den = coefficients._fiber(WeightProfile(profile), prefix)
            assert len(nums) == top + 1 and nums[top] != 0
            for x in range(p + 1):
                j = prefix + (x,)
                value = Fraction((-1) ** L * 2 ** (k + L) * nums[x], den) if x <= top else 0
                assert value == values[j] == oracle_bar(profile, j), j

    def test_moment_operators_match_closed_form(self):
        # int_0^1 u^n P~_j(u) du = n!^2 / ((n-j)! (n+j+1)!) for j <= n, zero above
        f = math.factorial

        def closed(n):
            return [Fraction(f(n) ** 2, f(n - j) * f(n + j + 1)) for j in range(n + 1)]

        def moments(nums, den):
            return [Fraction(c, den) for c in nums]

        def times_x(nums, den):
            # (2u - 1) F: m'_n = ((n + 1) m_{n+1} + n m_{n-1}) / (2n + 1)
            m = (0, *nums, 0, 0)  # m[n + 1] is m_n
            return [Fraction((n + 1) * m[n + 2] + n * m[n], (2 * n + 1) * den)
                    for n in range(len(nums) + 1)]

        g = ((1,), 1)
        for n in range(15):
            assert moments(*g) == closed(n)
            # (2u - 1) u^n = 2 u^(n+1) - u^n, and int_0^u s^n = u^(n+1) / (n+1)
            assert times_x(*g) == [2 * a - b for a, b in zip(closed(n + 1), closed(n) + [0])]
            assert moments(*coefficients._integral(*g)) == [a / (n + 1) for a in closed(n + 1)]
            g = coefficients._times_u(*g, 1)

    def test_clear_caches_drops_moments(self, cold_caches):
        build_tensor((0, 1, 0), 3)
        assert coefficients._bonnet_cache and coefficients._prefix_cache
        coefficients.clear_caches()
        assert coefficients._bonnet_cache == {} and coefficients._prefix_cache == {}

    def test_concurrent_growth_matches_cold_build(self, cold_caches):
        # threads grow one profile at once, sharing prefix moments and Bonnet pairs
        profile, caps, results = (0, 0, 0), [3, 10, 6, 9, 1, 8, 10, 5] * 2, {}

        def run(i, p):
            results[i] = get_tensor(profile, p)

        threads = [threading.Thread(target=run, args=item) for item in enumerate(caps)]
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
        grown = get_tensor(profile, 10)
        assert all(results[i].p >= p for i, p in enumerate(caps))
        values = grown.values
        assert all(value == oracle_bar(profile, j) for j, value in values.items())
        coefficients.clear_caches()
        cold = build_tensor(profile, 10)
        assert cold.scaled_array().tobytes() == grown.scaled_array().tobytes()
        for i, p in enumerate(caps):
            box = (slice(0, p + 1),) * 3
            assert (results[i].scaled_array()[box].tobytes()
                    == cold.scaled_array()[box].tobytes())


# sha256 of repr(sorted((j, numerator, denominator))) over the full box,
# recorded from the rational-polynomial kernel in x = 2u - 1 that the integer
# kernel replaced
KERNEL_DIGESTS = [
    ((0, 1), 12, "e416d8167213da37400f50b70499b66129463dc96dc11d46fe6d6ddbc50d7b8a"),
    ((1, 0), 12, "db46f53f5bf07b53d4b14459eb3549d69f08d268fe0ff3c43e031e6325f55ed9"),
    ((0, 0, 0), 8, "860ec66a1074da080bf49030ca43030ef4baee2b016031143123db7f6c148423"),
    ((0, 0, 1), 5, "51830f51a49c7e3abd4ff7b67977efefe7e619a5b80e96a9d37897930193bd44"),
    ((0, 1, 0), 5, "a2639b2ef71f7b985726d34bb8eba3c55200793c70d55577bd458ad6aca0678f"),
    ((1, 0, 0), 5, "65d7c96428553ba44886a4ea5ed899801a54fcf2750374803fddc0f10af8a613"),
    ((0,) * 4, 4, "39d6b1e5ef18101abd37924f1763c14d85325ab59c7570e7ab6f4d480d25e133"),
    ((0,) * 5, 3, "47cb90a2c08f579e3ddcba4e0427370a9007adab889bdb958041076b5d398948"),
]


class TestKernel:
    @pytest.mark.parametrize("profile, p, digest", KERNEL_DIGESTS)
    def test_full_box_digest(self, profile, p, digest):
        tensor = build_tensor(profile, p)
        triples = sorted((j, v.numerator, v.denominator) for j, v in tensor.values.items())
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest

    def test_values_are_fractions(self):
        assert type(bar_coefficient((0, 1, 0), (2, 1, 3))) is Fraction
        assert type(bar_coefficient((0, 0), (5, 0))) is Fraction  # zero by orthogonality
        assert type(exact_norm((1, 0, 2))) is Fraction

    def test_norm_closed_form(self):
        # 1 / prod_m sum_{i <= m} (2 l_i + 1)
        assert exact_norm((0, 0, 0)) == Fraction(1, 6)
        assert exact_norm((0, 1)) == Fraction(1, 1 * 4)
        assert exact_norm((1, 0)) == Fraction(1, 3 * 4)
        assert exact_norm((2, 0, 1)) == Fraction(1, 5 * 6 * 9)

    def test_gmpy2_never_imported(self):
        # a meta-path spy records every module the package asks for
        code = (
            "import sys\n"
            "class Spy:\n"
            "    seen = []\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        Spy.seen.append(name)\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import stochtaylor\n"
            "from stochtaylor import build_tensor, exact_norm, parseval_defect\n"
            "build_tensor((0, 1, 0), 3); exact_norm((1, 2)); parseval_defect((0, 0), 4)\n"
            "assert 'stochtaylor.coefficients' in Spy.seen\n"
            "assert not [n for n in Spy.seen if n.split('.')[0] == 'gmpy2'], Spy.seen\n"
        )
        src = str(Path(stochtaylor.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], cwd=src,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
