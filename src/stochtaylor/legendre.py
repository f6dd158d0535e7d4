"""Legendre polynomials with exact rational coefficients, and the shifted
orthonormal system on an interval [t, T].

Exact polynomials drive the symbolic simplex integration in
:mod:`stochtaylor.coefficients`; floating-point evaluation of the
orthonormal basis drives samplers and discretization oracles.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def rational(num, den=1):
        return _mpq(num, den)
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    def rational(num, den=1):
        return Fraction(num, den)

__all__ = [
    "RationalPoly",
    "rational",
    "legendre_poly",
    "eval_phi",
]

_R0 = rational(0)
_R1 = rational(1)

#: practical degree ceiling; coefficient bit-size grows ~j log j beyond this
MAX_DEGREE = 200


class RationalPoly:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of ``x**i``.  Canonical form: the
    trailing coefficient is nonzero unless the polynomial is zero, and every
    rational is stored normalized (lowest terms, positive denominator) by the
    underlying rational type.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if not isinstance(c, int) else rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({list(self.coeffs)!r})"

    def __call__(self, x):
        """Horner evaluation; exact if x is rational, float otherwise."""
        acc = _R0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RationalPoly(out)

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            return RationalPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPoly(())
        out = [_R0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return RationalPoly(out)

    __rmul__ = __mul__

    def antiderivative(self):
        """Exact antiderivative with zero constant term."""
        out = [_R0] * (len(self.coeffs) + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i + 1] = c / (i + 1)
        return RationalPoly(out)


_legendre_cache: list[RationalPoly] = [RationalPoly([_R1]), RationalPoly([_R0, _R1])]
_legendre_lock = threading.Lock()


def legendre_poly(j: int) -> RationalPoly:
    """Exact Legendre polynomial P_j in the power basis.

    Generated by the three-term recurrence
    ``(j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}`` seeded with P_0 = 1, P_1 = x.
    Normalization: P_j(1) = 1.
    """
    if j < 0:
        raise ValueError("degree must be non-negative")
    if j > MAX_DEGREE:
        raise ValueError(f"degree {j} above practical ceiling {MAX_DEGREE}")
    if j < len(_legendre_cache):
        return _legendre_cache[j]
    with _legendre_lock:
        while len(_legendre_cache) <= j:
            n = len(_legendre_cache) - 1  # have P_n, build P_{n+1}
            pn, pm = _legendre_cache[n].coeffs, _legendre_cache[n - 1].coeffs
            out = [_R0] * (n + 2)
            c1 = rational(2 * n + 1, n + 1)
            c2 = rational(n, n + 1)
            for i, c in enumerate(pn):
                if c:
                    out[i + 1] += c1 * c
            for i, c in enumerate(pm):
                if c:
                    out[i] -= c2 * c
            _legendre_cache.append(RationalPoly(out))
    return _legendre_cache[j]


def legendre_value(j: int, x: float) -> float:
    """P_j(x) by the forward three-term recurrence (stable on [-1, 1])."""
    if j == 0:
        return 1.0
    pm, pn = 1.0, float(x)
    for n in range(1, j):
        pm, pn = pn, ((2 * n + 1) * x * pn - n * pm) / (n + 1)
    return pn


def eval_phi(j: int, s: float, t: float, T: float) -> float:
    """Orthonormal shifted Legendre basis function of degree ``j`` on [t, T].

    Returns ``sqrt((2j+1)/(T-t)) * P_j((s - (T+t)/2) * 2/(T-t))``.  Values
    come from the three-term recurrence at every degree: floating power-basis
    evaluation already loses ten digits near the interval ends by degree ~20,
    while the recurrence stays at relative rounding error on [-1, 1].
    """
    if T <= t:
        raise ValueError("interval must satisfy T > t")
    if not (t <= s <= T):
        raise ValueError(f"evaluation point {s} outside [{t}, {T}]")
    z = (2.0 * s - (T + t)) / (T - t)
    z = min(1.0, max(-1.0, z))
    return math.sqrt((2 * j + 1) / (T - t)) * legendre_value(j, z)

