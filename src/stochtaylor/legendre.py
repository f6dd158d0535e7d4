"""Legendre polynomials: the degree ceiling that :mod:`stochtaylor.coefficients`
enforces, and the floating-point orthonormal system on an interval [t, T] for
samplers and discretization oracles.
"""

from __future__ import annotations

import math

__all__ = [
    "eval_phi",
]

#: practical degree ceiling; coefficient bit-size grows ~j log j beyond this
MAX_DEGREE = 200


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
    if math.isinf(norm := (2 * j + 1) / (T - t)):
        raise ValueError(f"basis normalization overflows at degree {j}, step T-t = {T - t!r}")
    z = (2.0 * s - (T + t)) / (T - t)
    z = min(1.0, max(-1.0, z))
    return math.sqrt(norm) * legendre_value(j, z)
