import math
from fractions import Fraction

import numpy as np
import pytest

from stochtaylor.legendre import (
    RationalPoly,
    eval_phi,
    legendre_poly,
    legendre_value,
    rational,
)


def rodrigues_legendre(j):
    """Independent oracle: P_j = d^j/dx^j (x^2-1)^j / (2^j j!)."""
    # (x^2 - 1)^j by repeated multiplication
    poly = [Fraction(1)]
    base = [Fraction(-1), Fraction(0), Fraction(1)]
    for _ in range(j):
        out = [Fraction(0)] * (len(poly) + 2)
        for i, a in enumerate(poly):
            for l, b in enumerate(base):
                out[i + l] += a * b
        poly = out
    for _ in range(j):  # differentiate j times
        poly = [i * c for i, c in enumerate(poly)][1:]
    scale = Fraction(1, 2**j * math.factorial(j))
    return [c * scale for c in poly]


@pytest.mark.parametrize("j", range(0, 21))
def test_legendre_matches_rodrigues(j):
    got = legendre_poly(j).coeffs
    expect = rodrigues_legendre(j)
    while expect and expect[-1] == 0:
        expect.pop()
    assert len(got) == len(expect)
    assert all(g == e for g, e in zip(got, expect))


def test_low_degree_values():
    assert legendre_poly(0).coeffs == (rational(1),)
    assert legendre_poly(1).coeffs == (rational(0), rational(1))
    assert legendre_poly(2).coeffs == (rational(-1, 2), rational(0), rational(3, 2))


@pytest.mark.parametrize("j", range(0, 21))
def test_normalization_at_one(j):
    assert legendre_poly(j)(rational(1)) == 1


@pytest.mark.parametrize("j", range(0, 21))
def test_parity(j):
    # P_j(-x) = (-1)^j P_j(x): only powers of the same parity as j appear
    coeffs = legendre_poly(j).coeffs
    assert all(c == 0 for i, c in enumerate(coeffs) if (i + j) % 2)
    assert coeffs[j] != 0


def test_orthogonality_exact():
    for j in range(0, 21):
        for jp in range(j, 21):
            F = (legendre_poly(j) * legendre_poly(jp)).antiderivative()
            val = F(rational(1)) - F(rational(-1))
            if j == jp:
                assert val == rational(2, 2 * j + 1)
            else:
                assert val == 0


def test_antiderivative_examples():
    one = RationalPoly([1])
    x = RationalPoly([0, 1])
    assert one.antiderivative() == x
    assert x.antiderivative() == RationalPoly([0, 0, rational(1, 2)])
    assert RationalPoly([0, 0, 3]).antiderivative() == RationalPoly([0, 0, 0, 1])


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


def test_recurrence_matches_exact_polynomial():
    # stability contract: float recurrence vs exact rational evaluation
    grid = np.linspace(-1.0, 1.0, 101)
    for j in range(31):
        exact = legendre_poly(j)
        for x in grid:
            fx = Fraction(float(x))
            ref = exact(rational(fx.numerator, fx.denominator))
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


def test_degree_ceiling():
    with pytest.raises(ValueError):
        legendre_poly(201)
    with pytest.raises(ValueError):
        legendre_poly(-1)
