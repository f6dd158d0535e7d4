"""Exact Fourier-Legendre coefficients of iterated-integral kernels.

The kernel of an iterated stochastic integral lives on the ordered simplex.
Expanded in products of shifted orthonormal Legendre polynomials, each
Fourier coefficient splits into an exact rational simplex integral times a
closed-form scaling.  Everything here is exact arithmetic.
"""

from fractions import Fraction

from stochtaylor import (
    bar_coefficient,
    exact_norm,
    legendre_poly,
    parseval_defect,
    scaled_coefficient,
)

# The reduced coefficient at all-zero degrees is the ordered-simplex volume:
# 2^k / k! on [-1, 1]^k.
print("reduced coefficient, triple integral, degrees (0,0,0):",
      bar_coefficient((0, 0, 0), (0, 0, 0)))          # 4/3
print("reduced coefficient, quintuple integral, zeros:   ",
      bar_coefficient((0,) * 5, (0,) * 5))            # 4/15

# Weighted kernels carry the sign convention folding (-1)^(sum of weights):
print("weighted pair (0,1), degrees (0,0):", bar_coefficient((0, 1), (0, 0)))  # -8/3

# Scaling to the real coefficient of the Gaussian product expansion:
# prod sqrt(2j+1) * (T-t)^(k/2 + L) * 2^-(k+L) * reduced.
print("\nscaled leading coefficients at T-t = 1:")
for profile in [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]:
    c = scaled_coefficient(profile, (0,) * len(profile), 1.0)
    print(f"  profile {profile}: {c:.6f}")

# Exact squared L2 norms of the kernels (the total variance budget):
print("\nexact kernel norms, I_k = value * (T-t)^(k + 2L):")
for profile in [(0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 0, 0, 0), (0,) * 5]:
    print(f"  profile {profile}: {exact_norm(profile).value}")

# Parseval convergence is exactly telescoping for the all-zero-weight pair:
# I_2 - sum of squared coefficients = 1/(4(2p+1)), in exact rationals.
print("\npair Parseval defect (exact rationals):")
for p in (0, 1, 5, 50):
    d = parseval_defect((0, 0), p)
    assert d == Fraction(1, 4 * (2 * p + 1))
    print(f"  p = {p:3d}: {d}")

# Legendre polynomials themselves are exact, generated by the three-term
# recurrence, and orthogonal with norm 2/(2j+1):
p3, p5 = legendre_poly(3), legendre_poly(5)


def integral(poly):
    """Exact integral over [-1, 1] from the antiderivative."""
    F = poly.antiderivative()
    return F(1) - F(-1)


print("\nP_3 coefficients:", list(p3.coeffs))
print("int P_3 P_5 over [-1,1]:", integral(p3 * p5))
print("int P_5^2 over [-1,1]: ", integral(p5 * p5))
