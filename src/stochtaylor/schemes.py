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
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from .coefficients import check_step
from .errors import IndexPattern
from .planner import SCHEME_ORDER, TruncationPlan, scheme_plan, scheme_profiles, scheme_terms
from .sampling import GaussianPanel, IntegralSpec, make_panel, sample_ito, stack_ito

__all__ = [
    "SdeProblem",
    "StepContext",
    "SCHEMES",
    "required_words",
    "step",
    "grid_steps",
    "integrate_batch",
    "estimate_strong_order",
    "gbm_problem",
    "bilinear_problem",
]

SCHEMES = tuple(SCHEME_ORDER)


def required_words(scheme: str) -> List[str]:
    return [word for _, word, _ in scheme_terms(scheme)]


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
               plan: TruncationPlan | None = None, *, paths: int) -> "StepContext":
        """Draw one ``paths``-path panel and evaluate every integral the scheme needs.

        ``plan`` must be for the scheme's order at step ``h``.  Each (profile,
        cap) is evaluated for all index tuples at once (``stack_ito``); a
        zero-error integral is evaluated alone, at cap 0 (``sample_ito``).
        """
        order = SCHEME_ORDER[scheme]
        if plan is None:
            plan = scheme_plan(order, h)
        elif plan.order != order or not math.isclose(plan.T_minus_t, h, rel_tol=1e-12):
            raise ValueError(f"scheme {scheme!r} has order {order} at h = {h}, but the plan "
                             f"is for order {plan.order} at step {plan.T_minus_t}")
        stacks, exact, width = _step_layout(scheme, m, h, tuple(plan.items()))
        panel = make_panel(rng, m, width, paths)
        values = {}
        for profile, cap, reads in stacks:
            stack = stack_ito(profile, cap, h, panel)
            values.update((key, stack[at]) for key, at in reads)
        values.update(((tuple(s.profile), s.wiener_indices), sample_ito(s, 0, panel))
                      for s in exact)
        return cls(h, values, plan, panel)


@lru_cache(maxsize=64)
def _step_layout(scheme: str, m: int, h: float, caps: tuple):
    """A step's integrals: per (profile, cap) to stack, the (key, stack index) of each
    integral whose error does not vanish; the specs of those whose error vanishes; and the
    panel width, which drops only a pair's vanishing cap (or GBM re-seeds)."""
    caps = dict(caps)
    stacks, exact, width = {}, [], 0
    for weights in scheme_profiles(scheme_terms(scheme)):
        for indices in _index_tuples(m, len(weights)):
            spec, cap = IntegralSpec(weights, indices, h), caps[weights]
            if IndexPattern.from_indices(indices).error_vanishes(spec.profile):
                exact.append(spec)
                width = max(width, 0 if spec.k == 2 else cap)
            else:
                reads = stacks.setdefault((spec.profile, cap), [])
                reads.append(((weights, indices), tuple(i - 1 for i in indices)))
                width = max(width, cap)
    return tuple((w, c, tuple(r)) for (w, c), r in stacks.items()), tuple(exact), width


def _index_tuples(m: int, k: int) -> Iterable[Tuple[int, ...]]:
    """Component indices 1..m of a k-fold integral, in lexicographic order."""
    return product(range(1, m + 1), repeat=k)


def _arity(word: str) -> int:
    """Number of indices a word takes: one per G and one for a trailing B."""
    return word.count("G") + word.endswith("B")


@lru_cache(maxsize=None)
def _step_groups(scheme: str):
    """The scheme's rows as ((arity, ((word, ((num, den, power, weights), ...)), ...)), ...),
    consecutive rows of equal arity sharing one group."""
    rows = [(word, tuple((Fraction(c).numerator, Fraction(c).denominator, power, weights)
                         for c, power, weights in combo))
            for _, word, combo in scheme_terms(scheme)]
    return tuple((k, tuple(group)) for k, group in groupby(rows, key=lambda r: _arity(r[0])))


def step(problem: SdeProblem, scheme: str, x, t: float, ctx: StepContext):
    """One explicit strong step: ``x`` plus every term of the scheme's rows.

    Each group of rows is one sum over the index tuples; per tuple the rows
    add up in table order, and each row is its combination, summed left to
    right, times its operator word.  That order fixes every floating-point
    sum, so a step is reproducible bit for bit.
    """
    problem.validate_for(scheme)
    x = np.asarray(x, dtype=np.float64)
    hp = (1.0, ctx.h, ctx.h * ctx.h, ctx.h**3)
    y = x
    for k, rows in _step_groups(scheme):
        scaled = [(word, [(hp[power] * num / den, weights) for num, den, power, weights in terms])
                  for word, terms in rows]
        acc = None
        for idx in _index_tuples(problem.m, k):
            group = None
            for word, terms in scaled:
                combo = None
                for coef, weights in terms:
                    term = coef * ctx.integral(weights, idx) if weights else coef
                    combo = term if combo is None else combo + term
                value = _mul(combo, problem.op(word, x, t, *idx))
                group = value if group is None else group + value
            acc = group if acc is None else acc + group
        y = y + acc
    return y


def _mul(integral_value, vec):
    """Multiply per-path integral values with coefficient vectors."""
    return np.asarray(integral_value)[..., np.newaxis] * vec


def integrate_batch(problem: SdeProblem, scheme: str, x0, T: float, n_steps: int,
                    paths: int, seed: int, plan: TruncationPlan | None = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized integration of many paths on a uniform grid.

    Returns ``(x_T, W_T)``: final states, shape (paths, n), and accumulated
    Wiener endpoints, shape (paths, m), for coupling to exact solutions.
    """
    problem.validate_for(scheme)
    if paths < 1 or n_steps < 1:
        raise ValueError(f"paths and n_steps must be at least 1, got {paths} and {n_steps}")
    h = T / n_steps
    if plan is None:
        plan = scheme_plan(SCHEME_ORDER[scheme], h)
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


def grid_steps(T: float, h: float) -> int:
    """Number of steps ``h`` in the horizon ``T``; both must be positive and
    finite, and ``h`` must divide ``T``."""
    check_step(h)
    check_step(T)
    n_steps = round(T / h)
    if abs(n_steps * h - T) > 1e-9 * T:
        raise ValueError(f"step {h} does not divide horizon {T}")
    return n_steps


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
    against the same scheme at ``h / fine_factor`` run on independent noise.
    The fine reference therefore does not measure strong error: on
    ``bilinear`` it measures the spread between two independent solutions
    (Milstein, 2000 paths, h = 2^-2..2^-4: errors 1.29 to 1.33, slope
    -0.02).  A path-coupled reference is an open ROADMAP item.
    """
    steps = [float(h) for h in steps]
    if len(set(steps)) < 3:
        raise ValueError(f"order regression needs at least 3 distinct step sizes, got {steps}")
    grid = [grid_steps(T, h) for h in steps]
    errors = []
    for i, n_steps in enumerate(grid):
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
    # three distinct steps give full rank and at least one residual degree of freedom
    s2 = float(res[0]) / (len(steps) - 2)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    return OrderEstimate(slope, math.sqrt(s2 / sxx), steps, errors)


# ---------------------------------------------------------------------------
# bundled problems
# ---------------------------------------------------------------------------


def gbm_problem(mu: float = 0.5, sigma: float = 1.0) -> SdeProblem:
    """Geometric Brownian motion dx = mu x dt + sigma x dW (n = m = 1).

    Every operator word maps x to a scalar multiple of x: one factor mu per
    L and for a final a, one factor sigma per index the word takes.  The
    exact solution is the lognormal flow.
    """

    def lin(c):
        return lambda x, t, *idx: c * x

    ops = {w: lin(mu ** (w.count("L") + w.endswith("a")) * sigma ** _arity(w))
           for w in required_words(SCHEMES[-1])}

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
    if A.ndim != 2 or A.shape[0] != A.shape[1] or B1.shape != A.shape or B2.shape != A.shape:
        raise ValueError(f"A must be square and B1, B2 of its shape, got shapes "
                         f"{A.shape}, {B1.shape}, {B2.shape}")
    n = A.shape[0]
    Bs = {1: B1, 2: B2}

    def word_matrix(word, indices):
        # read right to left: a and L give A, B and G the channel of their index
        idx = list(indices)
        M = None
        for sym in reversed(word):
            S = Bs[idx.pop()] if sym in "BG" else A
            M = S if M is None else M @ S
        return M

    def entry(word):
        def fn(x, t, *indices):
            M = word_matrix(word, indices)
            return x @ M.T

        return fn

    ops = {w: entry(w) for w in required_words(SCHEMES[-1])}
    return SdeProblem(n, 2, ops, exact_solution=None, name="bilinear2d")
