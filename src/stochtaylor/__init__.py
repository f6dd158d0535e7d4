"""Mean-square optimal approximation of iterated Ito stochastic integrals by
truncated multiple Fourier-Legendre series, with exact truncation-error
formulas, minimal-cap planning, and strong Taylor SDE schemes of orders
1.0, 1.5, 2.0, and 2.5.
"""

from .coefficients import (
    CoeffTensor,
    WeightProfile,
    bar_coefficient,
    build_tensor,
    exact_norm,
    parseval_defect,
)
from .errors import ErrorResult, IndexPattern, error_bound_kfact, exact_error
from .legendre import eval_phi
from .planner import (
    Condition,
    TruncationPlan,
    check_hypothesis,
    minimal_order,
    minimal_order_kfact,
    reproduce_table,
    scheme_plan,
)
from .sampling import (
    GaussianPanel,
    IntegralSpec,
    discretization_oracle,
    sample_ito,
)
from .schemes import (
    SdeProblem,
    StepContext,
    bilinear_problem,
    estimate_strong_order,
    gbm_problem,
    integrate_batch,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffTensor",
    "Condition",
    "ErrorResult",
    "GaussianPanel",
    "IndexPattern",
    "IntegralSpec",
    "SdeProblem",
    "StepContext",
    "TruncationPlan",
    "WeightProfile",
    "bar_coefficient",
    "bilinear_problem",
    "build_tensor",
    "check_hypothesis",
    "discretization_oracle",
    "error_bound_kfact",
    "estimate_strong_order",
    "eval_phi",
    "exact_error",
    "exact_norm",
    "gbm_problem",
    "integrate_batch",
    "minimal_order",
    "minimal_order_kfact",
    "parseval_defect",
    "reproduce_table",
    "sample_ito",
    "scheme_plan",
    "step",
]
