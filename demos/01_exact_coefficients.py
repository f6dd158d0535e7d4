"""Exact Fourier-Legendre coefficients of iterated-integral kernels.

The kernel of an iterated stochastic integral lives on the ordered simplex.
Expanded in products of shifted orthonormal Legendre polynomials, each
Fourier coefficient splits into an exact rational simplex integral times a
closed-form scaling.  Everything here is exact arithmetic.
"""

from fractions import Fraction
from math import comb

from stochtaylor import bar_coefficient, exact_norm, parseval_defect
from stochtaylor.coefficients import get_tensor

# The reduced coefficient at all-zero degrees is the ordered-simplex volume:
# 2^k / k! on [-1, 1]^k.
print("reduced coefficient, triple integral, degrees (0,0,0):",
      bar_coefficient((0, 0, 0), (0, 0, 0)))          # 4/3
print("reduced coefficient, quintuple integral, zeros:   ",
      bar_coefficient((0,) * 5, (0,) * 5))            # 4/15

# Weighted kernels carry the sign convention folding (-1)^(sum of weights):
print("weighted pair (0,1), degrees (0,0):", bar_coefficient((0, 1), (0, 0)))  # -8/3

# Scaling to the real coefficient of the Gaussian product expansion:
# prod sqrt(2j+1) * (T-t)^(k/2 + L) * 2^-(k+L) * reduced.  The cached tensor
# stores these floats at T-t = 1.
print("\nscaled leading coefficients at T-t = 1:")
for profile in [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]:
    c = get_tensor(profile, 0).scaled_array()[(0,) * len(profile)]
    print(f"  profile {profile}: {c:.6f}")

# Exact squared L2 norms of the kernels (the total variance budget):
print("\nexact kernel norms, I_k = value * (T-t)^(k + 2L):")
for profile in [(0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 0, 0, 0), (0,) * 5]:
    print(f"  profile {profile}: {exact_norm(profile)}")

# Parseval convergence is exactly telescoping for the all-zero-weight pair:
# I_2 - sum of squared coefficients = 1/(4(2p+1)), in exact rationals.
print("\npair Parseval defect (exact rationals):")
for p in (0, 1, 5, 50):
    d = parseval_defect((0, 0), p)
    assert d == Fraction(1, 4 * (2 * p + 1))
    print(f"  p = {p:3d}: {d}")

# The kernel integrates in u = (1 + x) / 2 on [0, 1], where the Legendre
# polynomials have integer coefficients (-1)^(j+i) C(j,i) C(j+i,i) and are
# orthogonal with norm 1/(2j+1):
p3, p5 = ([(-1) ** (j + i) * comb(j, i) * comb(j + i, i) for i in range(j + 1)] for j in (3, 5))


def integral(a, b):
    """Exact integral over [0, 1] of the product of two polynomials."""
    return sum(Fraction(ai * bl, i + l + 1) for i, ai in enumerate(a) for l, bl in enumerate(b))


print("\nP~_3 coefficients:", list(p3))
print("int P~_3 P~_5 over [0,1]:", integral(p3, p5))
print("int P~_5^2 over [0,1]: ", integral(p5, p5))
