"""Sampling truncated iterated integrals and validating them by Monte Carlo.

A truncated integral is a polynomial in i.i.d. standard normals; the same
normals can be reconstructed from a fine Wiener path, which puts the series
approximation and a left-point Riemann-Ito oracle on one probability space.
The empirical mean-square gap then matches the exact truncation error.
"""

import numpy as np

from stochtaylor import IndexPattern, IntegralSpec, exact_error, sample_ito
from stochtaylor.sampling import make_panel, oracle_mse

rng = np.random.default_rng(7)

# Draw a pair integral with equal components: at any cap it collapses to
# the classical (W^2 - h)/2 functional of a single normal.  The samplers
# return one value per path; a single draw is a panel of one path.
panel = make_panel(rng, m=1, p_max=8, paths=1)
spec = IntegralSpec((0, 0), (1, 1), 0.5)
z0 = panel.data[0, 0, 0]
print("pair integral, equal components:",
      sample_ito(spec, 8, panel)[0], "==", 0.25 * (z0**2 - 1))

# Monte Carlo validation of the exact error formula for the triple integral:
# the oracle and the expansion read the same streamed Wiener paths.
paths, grid = 40_000, 1024
spec = IntegralSpec((0, 0, 0), (1, 2, 3), 1.0)
results = oracle_mse([spec], (0, 2, 5), rng, paths, grid)
print(f"\ntriple integral, {paths} paths, {grid}-point oracle:")
for p in (0, 2, 5):
    emp, se = results[spec, p]
    exact = exact_error((0, 0, 0), IndexPattern.distinct(3), p, 1.0).value
    print(f"  cap {p}: empirical {emp:.6f}  exact {exact:.6f}  "
          f"z = {(emp - exact) / se:+.2f}")
