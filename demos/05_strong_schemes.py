"""Strong Taylor schemes of orders 1.0-2.5 on bundled problems.

Coefficient functions and their operator-applied variants enter through a
registry of operator words; each step draws all its iterated integrals from
one Gaussian panel at the caps the planner prescribes.
"""

import numpy as np

from stochtaylor import estimate_strong_order, gbm_problem, integrate_batch
from stochtaylor.schemes import bilinear_problem, required_words

prob = gbm_problem(mu=0.5, sigma=1.0)
print("operator words needed by each scheme:")
for scheme in ("milstein", "t15", "t20", "t25"):
    print(f"  {scheme}: {required_words(scheme)}")

# Strong error at the horizon, coupled to the exact lognormal flow through
# the accumulated Wiener endpoint.
xT, WT = integrate_batch(prob, "milstein", [1.0], T=1.0, n_steps=64,
                         paths=20_000, seed=1)
ref = prob.exact_solution(np.array([1.0]), 1.0, WT)
print(f"\nMilstein at h = 1/64: strong error {np.abs(xT - ref).mean():.5f}")

# Convergence orders: Euler 0.5, Milstein 1.0, order-1.5 scheme ~1.5.
steps = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]
for scheme in ("euler", "milstein", "t15"):
    est = estimate_strong_order(prob, scheme, steps, paths=8000,
                                x0=[1.0], T=1.0, seed=3)
    lo, hi = est.confidence_interval
    print(f"{scheme:9s} slope {est.slope:.3f}  ci [{lo:.3f}, {hi:.3f}]")

# A 2-dimensional bilinear system with two non-commuting noise channels runs
# through the same machinery (no exact solution).  The fine-step reference
# draws its noise independently, so the mean absolute difference floors at
# the distributional spread: the reported slope measures that floor, not the
# strong order.  Coupled coarse/fine noise for multiplicity >= 2 integrals
# is ROADMAP item 6; until then exact-solution coupling (GBM above) is the
# meaningful estimator.
bil = bilinear_problem()
est = estimate_strong_order(bil, "milstein", [2.0**-3, 2.0**-4, 2.0**-5],
                            paths=2000, x0=[1.0, -0.5], T=0.5, seed=5,
                            reference="fine", fine_factor=16)
print(f"\nbilinear 2d, Milstein, independent fine reference: slope "
      f"{est.slope:.3f} (floored by the uncoupled-noise spread)")
