import hashlib
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legval

import stochtaylor
from stochtaylor import coefficients
from stochtaylor.coefficients import (
    WeightProfile,
    bar_coefficient,
    build_tensor,
    exact_norm,
    get_tensor,
    parseval_defect,
    scaled_coefficient,
)


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
        # entry u of ``upper``; split so no array exceeds 40^4 entries
        if upper.size > 40**3:
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


class TestScaling:
    def test_triple_leading(self):
        assert scaled_coefficient((0, 0, 0), (0, 0, 0), 1.0) == pytest.approx(1 / 6)

    def test_pair_leading(self):
        assert scaled_coefficient((0, 0), (0, 0), 1.0) == pytest.approx(0.5)

    def test_single(self):
        assert scaled_coefficient((0,), (0,), 4.0) == pytest.approx(2.0)

    def test_bad_step_rejected(self):
        for step in (0.0, -0.5, float("nan"), float("-inf")):
            with pytest.raises(ValueError, match=repr(step)):
                scaled_coefficient((0, 0), (1, 0), step)

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
            assert scaled_coefficient(profile, j, h) == pytest.approx(expect, rel=1e-14)

    def test_scaling_in_step_length(self):
        rng = random.Random(3)
        for profile in [(0,), (1,), (0, 0), (0, 1), (0, 0, 0), (1, 0, 0)]:
            k, L = len(profile), sum(profile)
            j = tuple(rng.randrange(0, 3) for _ in range(k))
            lam = 0.123
            c1 = scaled_coefficient(profile, j, 1.0)
            assert scaled_coefficient(profile, j, lam) == pytest.approx(
                lam ** (k / 2 + L) * c1, rel=1e-14)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled_coefficient((0,), (0,), 0.0)


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
        assert len(build_tensor((0, 0), 0)) == 1
        assert len(build_tensor((0, 0, 0), 1)) == 8
        assert len(build_tensor((0,) * 5, 2)) == 243

    def test_entries(self):
        t = build_tensor((0, 0), 0)
        assert t[(0, 0)] == Fraction(2)
        t = build_tensor((0, 0, 0), 1)
        assert t[(0, 0, 0)] == Fraction(4, 3)
        t = build_tensor((0,) * 5, 0)
        assert t[(0,) * 5] == Fraction(4, 15)

    def test_entry_ceiling(self):
        with pytest.raises(ValueError):
            build_tensor((0,) * 5, 40)  # 41^5 entries, above the 10^8 ceiling

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
        before, n = dict(vars(tensor)), len(tensor)
        for p in (4, 2, 0):
            parseval_defect(profile, p)
        assert get_tensor(profile, 4) is tensor
        assert vars(tensor).keys() == before.keys()
        assert all(vars(tensor)[name] is value for name, value in before.items())
        assert len(tensor) == n

    def test_concurrent_defects_agree(self, monkeypatch):
        # threads extend one profile's exact sums at once; no shell may be lost or mixed
        for name in ("_tensor_cache", "_sq_sum_cache"):
            monkeypatch.setattr(coefficients, name, {})
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
        assert coefficients._sq_sum_cache[(0, 0)] == [
            Fraction(1, 2) - Fraction(1, 4 * (2 * q + 1)) for q in range(10)]

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
