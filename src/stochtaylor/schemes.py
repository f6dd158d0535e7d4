"""Explicit one-step strong schemes of orders 1.0, 1.5, 2.0, 2.5.

Coefficient functions and their operator-applied variants are supplied by
the user through a registry keyed by operator words: ``"a"``, ``"B"``,
``"GB"``, ``"La"``, ... where ``G`` is the diffusion-direction first-order
operator (one component index per ``G``) and ``L`` the drift generator.
Each registry entry is a callable ``f(x, t, *indices) -> array`` that
broadcasts over leading axes of ``x`` (shape ``(..., n)``).

A step draws every iterated integral it needs from one Gaussian panel, so
the integrals inside a step are dependent through shared normals exactly as
the expansion formulas require; panels are independent across steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from .planner import TruncationPlan, scheme_plan
from .sampling import GaussianPanel, IntegralSpec, make_panel, sample_ito

__all__ = [
    "SdeProblem",
    "StepContext",
    "SCHEMES",
    "required_words",
    "step",
    "integrate_batch",
    "estimate_strong_order",
    "gbm_problem",
    "bilinear_problem",
]

SCHEMES = ("euler", "milstein", "t15", "t20", "t25")

_SCHEME_ORDER = {"milstein": 1.0, "t15": 1.5, "t20": 2.0, "t25": 2.5, "euler": 1.0}

# operator words each scheme evaluates; a trailing B carries a column index,
# each G carries a component index
_WORDS = {
    "euler": ["a", "B"],
    "milstein": ["a", "B", "GB"],
    "t15": ["a", "B", "GB", "Ga", "LB", "GGB", "La"],
    "t20": ["a", "B", "GB", "Ga", "LB", "GGB", "La",
            "GLB", "LGB", "GGa", "GGGB"],
    "t25": ["a", "B", "GB", "Ga", "LB", "GGB", "La",
            "GLB", "LGB", "GGa", "GGGB",
            "GLa", "LLB", "LGa", "GLGB", "GGLB", "GGGa", "LGGB", "GGGGB", "LLa"],
}

# weight profiles of the stochastic integrals each scheme consumes
_INTEGRALS = {
    "euler": [(0,)],
    "milstein": [(0,), (0, 0)],
    "t15": [(0,), (1,), (0, 0), (0, 0, 0)],
    "t20": [(0,), (1,), (0, 0), (0, 0, 0), (1, 0), (0, 1), (0, 0, 0, 0)],
    "t25": [(0,), (1,), (2,), (0, 0), (0, 0, 0), (1, 0), (0, 1), (0, 0, 0, 0),
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0, 0, 0)],
}


def required_words(scheme: str) -> List[str]:
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}")
    return list(_WORDS[scheme])


@dataclass
class SdeProblem:
    """Ito system dx = a(x,t) dt + sum_i B_i(x,t) dW^i with operator registry."""

    n: int
    m: int
    ops: Dict[str, Callable]
    exact_solution: Callable | None = None  # (x0, T, W_T) -> x_T, when known
    name: str = ""

    def op(self, word: str, x, t, *indices):
        try:
            fn = self.ops[word]
        except KeyError:
            raise KeyError(
                f"problem {self.name or '<anon>'} has no registry entry for "
                f"operator word {word!r}"
            ) from None
        return np.asarray(fn(x, t, *indices), dtype=np.float64)

    def validate_for(self, scheme: str) -> None:
        missing = [w for w in required_words(scheme) if w not in self.ops]
        if missing:
            raise KeyError(f"scheme {scheme!r} needs missing operator words {missing}")


class StepContext:
    """Realized iterated-integral values for one step, from one panel."""

    def __init__(self, h: float, values: Dict[tuple, np.ndarray], plan: TruncationPlan,
                 panel: GaussianPanel):
        self.h = h
        self.values = values
        self.plan = plan
        self.panel = panel

    def integral(self, weights: Tuple[int, ...], indices: Tuple[int, ...]):
        return self.values[(tuple(weights), tuple(indices))]

    @classmethod
    def sample(cls, scheme: str, m: int, h: float, rng: np.random.Generator,
               plan: TruncationPlan | None = None, paths: int | None = None,
               constant: float = 1.0) -> "StepContext":
        """Draw one panel and evaluate every integral the scheme needs.

        The panel covers the largest degree any integral actually touches:
        the equal-component pair integral collapses to its degree-0 closed
        form, so single-noise problems never pay for the pair cap.
        """
        if plan is None:
            plan = scheme_plan(_SCHEME_ORDER[scheme], h, constant)
        profiles = [tuple(w) for w in _INTEGRALS[scheme]]
        combos = [
            (weights, indices)
            for weights in profiles
            for indices in _index_tuples(m, len(weights))
        ]

        def needed(weights, indices):
            if weights == (0, 0) and indices[0] == indices[1]:
                return 0
            return plan.cap(weights)

        p_max = max(needed(w, idx) for w, idx in combos)
        panel = make_panel(rng, m, p_max, paths)
        values: Dict[tuple, np.ndarray] = {}
        for weights, indices in combos:
            spec = IntegralSpec(weights, indices, h)
            values[(weights, indices)] = sample_ito(spec, plan.cap(weights), panel)
        return cls(h, values, plan, panel)


def _index_tuples(m: int, k: int) -> Iterable[Tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for head in range(1, m + 1):
        for rest in _index_tuples(m, k - 1):
            yield (head,) + rest


def step(problem: SdeProblem, scheme: str, x, t: float, ctx: StepContext):
    """One explicit strong step, evaluated exactly as the scheme is printed."""
    problem.validate_for(scheme)
    x = np.asarray(x, dtype=np.float64)
    h = ctx.h
    m = problem.m
    I = ctx.integral

    def op(word, *indices):
        return problem.op(word, x, t, *indices)

    def wsum(values_by_index):
        acc = None
        for term in values_by_index:
            acc = term if acc is None else acc + term
        return acc

    y = x + h * op("a")
    y = y + wsum(_mul(I((0,), (i1,)), op("B", i1)) for i1 in range(1, m + 1))
    if scheme == "euler":
        return y
    y = y + wsum(
        _mul(I((0, 0), (i1, i2)), op("GB", i1, i2))
        for i1 in range(1, m + 1) for i2 in range(1, m + 1)
    )
    if scheme == "milstein":
        return y
    # order 1.5 terms
    y = y + wsum(
        _mul(h * I((0,), (i1,)) + I((1,), (i1,)), op("Ga", i1))
        - _mul(I((1,), (i1,)), op("LB", i1))
        for i1 in range(1, m + 1)
    )
    y = y + wsum(
        _mul(I((0, 0, 0), (i1, i2, i3)), op("GGB", i1, i2, i3))
        for i1 in range(1, m + 1) for i2 in range(1, m + 1) for i3 in range(1, m + 1)
    )
    y = y + (h * h / 2.0) * op("La")
    if scheme == "t15":
        return y
    # order 2.0 terms
    y = y + wsum(
        _mul(I((1, 0), (i1, i2)) - I((0, 1), (i1, i2)), op("GLB", i1, i2))
        - _mul(I((1, 0), (i1, i2)), op("LGB", i1, i2))
        + _mul(I((0, 1), (i1, i2)) + h * I((0, 0), (i1, i2)), op("GGa", i1, i2))
        for i1 in range(1, m + 1) for i2 in range(1, m + 1)
    )
    y = y + wsum(
        _mul(I((0, 0, 0, 0), idx), op("GGGB", *idx))
        for idx in _index_tuples(m, 4)
    )
    if scheme == "t20":
        return y
    # order 2.5 terms
    y = y + wsum(
        _mul(0.5 * I((2,), (i1,)) + h * I((1,), (i1,)) + (h * h / 2.0) * I((0,), (i1,)),
             op("GLa", i1))
        + 0.5 * _mul(I((2,), (i1,)), op("LLB", i1))
        - _mul(I((2,), (i1,)) + h * I((1,), (i1,)), op("LGa", i1))
        for i1 in range(1, m + 1)
    )
    y = y + wsum(
        _mul(I((1, 0, 0), idx) - I((0, 1, 0), idx), op("GLGB", *idx))
        + _mul(I((0, 1, 0), idx) - I((0, 0, 1), idx), op("GGLB", *idx))
        + _mul(h * I((0, 0, 0), idx) + I((0, 0, 1), idx), op("GGGa", *idx))
        - _mul(I((1, 0, 0), idx), op("LGGB", *idx))
        for idx in _index_tuples(m, 3)
    )
    y = y + wsum(
        _mul(I((0, 0, 0, 0, 0), idx), op("GGGGB", *idx))
        for idx in _index_tuples(m, 5)
    )
    y = y + (h**3 / 6.0) * op("LLa")
    return y


def _mul(integral_value, vec):
    """Multiply per-path integral values with coefficient vectors."""
    integral_value = np.asarray(integral_value)
    vec = np.asarray(vec)
    if integral_value.ndim == 0:
        return integral_value * vec
    if vec.ndim == 1:  # batch integrals, common coefficient vector
        return np.multiply.outer(integral_value, vec)
    return integral_value[:, np.newaxis] * vec


def integrate_batch(problem: SdeProblem, scheme: str, x0, T: float, n_steps: int,
                    paths: int, seed: int, plan: TruncationPlan | None = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized integration of many paths on a uniform grid.

    Returns ``(x_T, W_T)``: final states, shape (paths, n), and accumulated
    Wiener endpoints, shape (paths, m), for coupling to exact solutions.
    """
    problem.validate_for(scheme)
    h = T / n_steps
    if plan is None:
        plan = scheme_plan(_SCHEME_ORDER[scheme], h)
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.broadcast_to(np.asarray(x0, dtype=np.float64).reshape(problem.n),
                        (paths, problem.n)).copy()
    W = np.zeros((paths, problem.m))
    for istep in range(n_steps):
        ctx = StepContext.sample(scheme, problem.m, h, rng, plan, paths=paths)
        x = step(problem, scheme, x, istep * h, ctx)
        for i in range(1, problem.m + 1):
            W[:, i - 1] += ctx.integral((0,), (i,))
    return x, W


@dataclass
class OrderEstimate:
    slope: float
    stderr: float
    steps: List[float]
    errors: List[float]

    @property
    def confidence_interval(self) -> Tuple[float, float]:
        return (self.slope - 2 * self.stderr, self.slope + 2 * self.stderr)


def estimate_strong_order(problem: SdeProblem, scheme: str, steps, paths: int,
                          x0, T: float, seed: int = 0, reference: str = "exact",
                          fine_factor: int = 64) -> OrderEstimate:
    """Least-squares slope of log mean absolute endpoint error against log h.

    ``reference="exact"`` couples each run to the problem's exact solution
    through the accumulated Wiener endpoint; ``reference="fine"`` compares
    against the same scheme at ``h / fine_factor`` with independent noise
    (noisier estimator, documented trade-off).
    """
    steps = [float(h) for h in steps]
    if len(steps) < 3:
        raise ValueError("order regression needs at least 3 step sizes")
    errors = []
    for i, h in enumerate(steps):
        n_steps = round(T / h)
        if abs(n_steps * h - T) > 1e-9 * T:
            raise ValueError(f"step {h} does not divide horizon {T}")
        xT, WT = integrate_batch(problem, scheme, x0, T, n_steps, paths, seed + 1000 * i)
        if reference == "exact":
            if problem.exact_solution is None:
                raise ValueError("problem has no exact solution; use reference='fine'")
            ref = problem.exact_solution(np.asarray(x0, dtype=np.float64), T, WT)
        elif reference == "fine":
            ref, _ = integrate_batch(problem, scheme, x0, T, n_steps * fine_factor,
                                     paths, seed + 7777 + 1000 * i)
        else:
            raise ValueError("reference must be 'exact' or 'fine'")
        err = np.abs(xT - ref).sum(axis=1).mean()
        errors.append(float(err))
    lx = np.log(steps)
    ly = np.log(errors)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = len(steps) - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        sxx = float(((lx - lx.mean()) ** 2).sum())
        stderr = math.sqrt(s2 / sxx)
    else:
        stderr = float("nan")
    return OrderEstimate(slope, stderr, steps, errors)


# ---------------------------------------------------------------------------
# bundled problems
# ---------------------------------------------------------------------------


def gbm_problem(mu: float = 0.5, sigma: float = 1.0) -> SdeProblem:
    """Geometric Brownian motion dx = mu x dt + sigma x dW (n = m = 1).

    Every operator word maps x to a scalar multiple of x; the registry is
    hand-derived.  The exact solution is the lognormal flow.
    """

    def lin(c):
        return lambda x, t, *idx: c * x

    ops = {
        "a": lin(mu),
        "B": lin(sigma),
        "GB": lin(sigma**2),
        "Ga": lin(mu * sigma),
        "LB": lin(mu * sigma),
        "La": lin(mu**2),
        "GGB": lin(sigma**3),
        "GLB": lin(mu * sigma**2),
        "LGB": lin(mu * sigma**2),
        "GGa": lin(mu * sigma**2),
        "GGGB": lin(sigma**4),
        "GLa": lin(mu**2 * sigma),
        "LLB": lin(mu**2 * sigma),
        "LGa": lin(mu**2 * sigma),
        "GLGB": lin(mu * sigma**3),
        "GGLB": lin(mu * sigma**3),
        "GGGa": lin(mu * sigma**3),
        "LGGB": lin(mu * sigma**3),
        "GGGGB": lin(sigma**5),
        "LLa": lin(mu**3),
    }

    def exact(x0, T, W_T):
        x0 = np.asarray(x0, dtype=np.float64).reshape(1)
        return x0 * np.exp((mu - 0.5 * sigma**2) * T + sigma * W_T[:, :1] * 1.0)

    return SdeProblem(1, 1, ops, exact_solution=exact, name="gbm")


_DEFAULT_A = np.array([[0.2, -0.3], [0.1, 0.1]])
_DEFAULT_B1 = np.array([[0.4, 0.1], [0.0, 0.3]])
_DEFAULT_B2 = np.array([[0.0, -0.25], [0.35, 0.05]])


def bilinear_problem(A: np.ndarray | None = None, B1: np.ndarray | None = None,
                     B2: np.ndarray | None = None) -> SdeProblem:
    """Two-dimensional bilinear system with two non-commuting noise channels.

    dx = A x dt + B_1 x dW^1 + B_2 x dW^2.  For linear coefficient maps the
    operator words reduce to matrix products: each G appends its channel
    matrix, each L appends the drift matrix, applied right-to-left.
    """
    A = _DEFAULT_A if A is None else np.asarray(A, dtype=np.float64)
    B1 = _DEFAULT_B1 if B1 is None else np.asarray(B1, dtype=np.float64)
    B2 = _DEFAULT_B2 if B2 is None else np.asarray(B2, dtype=np.float64)
    n = A.shape[0]
    Bs = {1: B1, 2: B2}

    def word_matrix(word, indices):
        # base symbol: a -> A, B -> channel matrix of last index
        idx = list(indices)
        if word.endswith("B"):
            M = Bs[idx.pop()]
            prefix = word[:-1]
        else:
            M = A
            prefix = word[:-1]
        for sym in reversed(prefix):
            if sym == "G":
                M = M @ Bs[idx.pop()]
            elif sym == "L":
                M = M @ A
            else:
                raise AssertionError(word)
        return M

    def entry(word):
        def fn(x, t, *indices):
            M = word_matrix(word, indices)
            return x @ M.T

        return fn

    ops = {w: entry(w) for w in _WORDS["t25"]}
    return SdeProblem(n, 2, ops, exact_solution=None, name="bilinear2d")
