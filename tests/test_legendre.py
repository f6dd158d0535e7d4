import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from stochtaylor import coefficients
from stochtaylor.coefficients import _prefix
from stochtaylor.legendre import eval_phi, legendre_value
from test_coefficients import prefix_poly, shifted_legendre


def rodrigues_shifted(j):
    """Independent oracle: P~_j(u) = d^j/du^j (u^2 - u)^j / j!."""
    poly = [1]
    for _ in range(j):  # times (u^2 - u)
        out = [0] * (len(poly) + 2)
        for i, a in enumerate(poly):
            out[i + 1] -= a
            out[i + 2] += a
        poly = out
    for _ in range(j):  # differentiate j times
        poly = [i * c for i, c in enumerate(poly)][1:]
    return [Fraction(c, math.factorial(j)) for c in poly]


def evaluate(coeffs, u):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def integral_01(coeffs):
    """Exact integral over [0, 1] of a power-basis polynomial."""
    return sum(Fraction(c, i + 1) for i, c in enumerate(coeffs))


def multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for l, bl in enumerate(b):
            out[i + l] += ai * bl
    return out


@pytest.mark.parametrize("j", range(0, 21))
def test_legendre_matches_rodrigues(j):
    got = shifted_legendre(j)
    assert all(isinstance(c, int) for c in got)
    assert list(got) == rodrigues_shifted(j)


def test_low_degree_values():
    assert shifted_legendre(0) == (1,)
    assert shifted_legendre(1) == (-1, 2)
    assert shifted_legendre(2) == (1, -6, 6)


@pytest.mark.parametrize("j", range(0, 21))
def test_normalization_at_one(j):
    assert sum(shifted_legendre(j)) == 1


@pytest.mark.parametrize("j", range(0, 21))
def test_parity(j):
    # P_j(-x) = (-1)^j P_j(x) reads P~_j(1 - u) = (-1)^j P~_j(u) after the shift
    coeffs = shifted_legendre(j)
    reflected = [0] * (j + 1)
    for i, c in enumerate(coeffs):  # c (1 - u)^i
        for m in range(i + 1):
            reflected[m] += c * math.comb(i, m) * (-1) ** m
    assert reflected == [(-1) ** j * c for c in coeffs]


def test_antiderivative_examples():
    # the oracle's integer antiderivative from 0: (numerators of u^0, u^1, ...), denominator
    assert prefix_poly(((0, 0),)) == ((0, 1), 1)  # int_0^u 1 = u
    assert prefix_poly(((1, 0),)) == ((0, 0, 1), 2)  # int_0^u s = u^2/2
    assert prefix_poly(((0, 1),)) == ((0, -1, 1), 1)  # int_0^u (2s - 1) = u^2 - u
    # int_0^u s (s^2 - s) ds = u^4/4 - u^3/3
    assert prefix_poly(((0, 1), (1, 0))) == ((0, 0, 0, -4, 3), 12)
    # the kernel holds the same polynomials by their moments against P~_0, P~_1, ...
    for steps in [((0, 0),), ((1, 0),), ((0, 1),), ((0, 1), (1, 0)), ((2, 3), (0, 5), (1, 2))]:
        nums, den = prefix_poly(steps)
        moments = [integral_01(multiply([Fraction(c, den) for c in nums], shifted_legendre(n)))
                   for n in range(len(nums))]
        got, got_den = _prefix(steps)
        assert [Fraction(c, got_den) for c in got] == moments


@pytest.mark.parametrize("descending", [False, True])
def test_prefix_matches_monomial_oracle(monkeypatch, descending):
    # every step sequence of depth <= 3 with j <= 6 and l <= 2 from cold caches; read
    # descending, each parent's degrees land below its stored Bonnet pair, so the walk,
    # the pair's lower half and the restart from F_0 all run
    for name in ("_prefix_cache", "_bonnet_cache"):
        monkeypatch.setattr(coefficients, name, {})
    # F = sum_n (2n + 1) m_n P~_n turns the moments into monomial numerators
    rows = [[(2 * n + 1) * c for c in shifted_legendre(n)] for n in range(28)]
    seqs = [s for depth in (1, 2, 3) for s in product(product(range(3), range(7)), repeat=depth)]
    for steps in reversed(seqs) if descending else seqs:
        nums, den = _prefix(steps)
        assert den > 0 and math.gcd(den, *nums) == 1, steps
        poly = [0] * len(nums)
        for m, row in zip(nums, rows):
            for i, c in enumerate(row):
                poly[i] += m * c
        want, want_den = prefix_poly(steps)
        assert len(want) == len(poly), steps
        assert all(a * want_den == b * den for a, b in zip(poly, want)), steps


def test_orthogonality_exact():
    for j in range(0, 21):
        for jp in range(j, 21):
            val = integral_01(multiply(shifted_legendre(j), shifted_legendre(jp)))
            assert val == (Fraction(1, 2 * j + 1) if j == jp else 0)


def test_moment_closed_form():
    # int_0^1 u^n P~_j(u) du = n!^2 / ((n-j)! (n+j+1)!) for n >= j, else 0
    for j in range(13):
        for n in range(13):
            direct = integral_01([0] * n + list(shifted_legendre(j)))
            if n < j:
                assert direct == 0
            else:
                f = math.factorial
                assert direct == Fraction(f(n) ** 2, f(n - j) * f(n + j + 1))


def test_eval_phi_examples():
    assert eval_phi(0, 0.3, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_phi(1, 1.0, 0.0, 1.0) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert eval_phi(2, 0.5, 0.0, 1.0) == pytest.approx(-math.sqrt(5) / 2, abs=1e-14)


def test_eval_phi_domain_errors():
    with pytest.raises(ValueError):
        eval_phi(0, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_phi(0, 1.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_phi(0, 0.5, 1.0, 1.0)


def test_eval_phi_normalization_overflow():
    # 5/3e-308 is finite, 7/3e-308 is not: the error names the degree and the step
    assert math.isfinite(eval_phi(2, 0.0, 0.0, 3e-308))
    with pytest.raises(ValueError, match=r"overflows at degree 3, step T-t = 3e-308"):
        eval_phi(3, 0.0, 0.0, 3e-308)


def test_recurrence_matches_exact_polynomial():
    # stability contract: float recurrence vs exact evaluation at u = (1+x)/2
    grid = np.linspace(-1.0, 1.0, 101)
    for j in range(31):
        coeffs = shifted_legendre(j)
        for x in grid:
            ref = evaluate(coeffs, (1 + Fraction(float(x))) / 2)
            assert abs(legendre_value(j, float(x)) - float(ref)) < 1e-10


def test_basis_fn_normalized():
    # integral of phi^2 over the interval equals 1, by fine quadrature
    t, T = 0.25, 1.75
    x, w = np.polynomial.legendre.leggauss(60)
    s = 0.5 * (T - t) * x + 0.5 * (T + t)
    for j in (0, 1, 5, 17):
        vals = np.array([eval_phi(j, si, t, T) for si in s])
        integral = 0.5 * (T - t) * float((w * vals**2).sum())
        assert integral == pytest.approx(1.0, abs=1e-12)
