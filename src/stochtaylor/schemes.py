"""Explicit one-step strong schemes of orders 1.0, 1.5, 2.0, 2.5.

Coefficient functions and their operator-applied variants are supplied by
the user through a registry keyed by operator words: ``"a"``, ``"B"``,
``"GB"``, ``"La"``, ... where ``G`` is the diffusion-direction first-order
operator (one component index per ``G``, one more for a trailing ``B``) and
``L`` the drift generator, applied right to left.  Each registry entry is a
callable ``f(x, t) -> array`` that returns the word at every index tuple: for
``x`` of shape ``(n,)`` or ``(paths, n)`` and a word of k indices, shape
``(m,) * k + x.shape`` with tuple (i1, ..., ik) at ``[i1 - 1, ..., ik - 1]``.
``linear_problem`` builds the registry of a linear system; ``gbm`` and
``bilinear2d`` are two of its instances.

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
    "required_words",
    "step",
    "grid_steps",
    "integrate_batch",
    "estimate_strong_order",
    "linear_problem",
    "gbm_problem",
    "bilinear_problem",
]


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

    def op(self, word: str, x, t):
        """The word at every index tuple, shape ``(m,) * arity + x.shape``."""
        if word not in self.ops:
            raise KeyError(f"problem {self.name or '<anon>'} has no registry entry for "
                           f"operator word {word!r}")
        value = np.asarray(self.ops[word](x, t), dtype=np.float64)
        if value.shape != (self.m,) * _arity(word) + np.shape(x):
            raise ValueError(f"operator word {word!r} gave shape {value.shape}; an entry "
                             f"stacks the word over its index tuples")
        return value

    def validate_for(self, scheme: str) -> None:
        missing = [w for w in required_words(scheme) if w not in self.ops]
        if missing:
            raise KeyError(f"scheme {scheme!r} needs missing operator words {missing}")


@dataclass(eq=False)
class StepContext:
    """Realized iterated-integral values for one step, from one panel."""

    h: float
    values: Dict[tuple, np.ndarray]
    plan: TruncationPlan
    panel: GaussianPanel

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
        stacks, exact, width, top = _step_layout(scheme, m, h, tuple(plan.items()))
        panel = make_panel(rng, m, width, paths)
        panel.hermite(top)  # the table every cap-0 call reads, built at its full size once
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
    integral whose error does not vanish; the specs of those whose error vanishes; the
    panel width, which drops only a pair's vanishing cap (or GBM re-seeds); and the largest
    multiplicity evaluated at cap 0, the Hermite degree the step reads."""
    caps = dict(caps)
    stacks, exact, width, top = {}, [], 0, 0
    for weights in scheme_profiles(scheme_terms(scheme)):
        for indices in _index_tuples(m, len(weights)):
            spec, cap = IntegralSpec(weights, indices, h), caps[weights]
            if IndexPattern.from_indices(indices).error_vanishes(spec.profile):
                exact.append(spec)
                width, top = max(width, 0 if spec.k == 2 else cap), max(top, spec.k)
            else:
                reads = stacks.setdefault((spec.profile, cap), [])
                reads.append(((weights, indices), tuple(i - 1 for i in indices)))
                width, top = max(width, cap), max(top, 0 if cap else spec.k)
    return tuple((w, c, tuple(r)) for (w, c), r in stacks.items()), tuple(exact), width, top


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
    sum, so a step is reproducible bit for bit.  A row's word is evaluated
    once, at all index tuples, before the sum.
    """
    problem.validate_for(scheme)
    x = np.asarray(x, dtype=np.float64)
    hp = (1.0, ctx.h, ctx.h * ctx.h, ctx.h**3)
    y = x
    for k, rows in _step_groups(scheme):
        scaled = [(problem.op(word, x, t),
                   [(hp[power] * num / den, weights) for num, den, power, weights in terms])
                  for word, terms in rows]
        acc = None
        for idx in _index_tuples(problem.m, k):
            at = tuple(i - 1 for i in idx)
            group = None
            for ops, terms in scaled:
                combo = None
                for coef, weights in terms:
                    term = coef * ctx.integral(weights, idx) if weights else coef
                    combo = term if combo is None else combo + term
                value = np.asarray(combo)[..., np.newaxis] * ops[at]
                group = value if group is None else group + value
            acc = group if acc is None else acc + group
        y = y + acc
    return y


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
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.size != problem.n or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be n = {problem.n} finite values, got {x0.tolist()}")
    h = T / n_steps
    if plan is None:
        plan = scheme_plan(SCHEME_ORDER[scheme], h)
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.broadcast_to(x0.reshape(problem.n), (paths, problem.n)).copy()
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
                          x0, T: float, seed: int = 0, reference: str = "exact"
                          ) -> OrderEstimate:
    """Least-squares slope of log mean absolute endpoint error against log h.

    Each run is coupled to the problem's exact solution through the
    accumulated Wiener endpoint, so the error is measured on one Brownian
    path.  ``"exact"`` is the only reference, and a problem without an exact
    solution is rejected: a fine-step reference on the same path is ROADMAP
    item 4.
    """
    steps = [float(h) for h in steps]
    if len(set(steps)) < 3:
        raise ValueError(f"order regression needs at least 3 distinct step sizes, got {steps}")
    grid = [grid_steps(T, h) for h in steps]
    if reference != "exact":
        raise ValueError(f"reference must be 'exact', got {reference!r}")
    if problem.exact_solution is None:
        raise ValueError("problem has no exact solution; a strong-order reference on the "
                         "same Brownian path is ROADMAP item 4")
    x0 = np.asarray(x0, dtype=np.float64)
    errors = []
    for i, (h, n_steps) in enumerate(zip(steps, grid)):
        xT, WT = integrate_batch(problem, scheme, x0, T, n_steps, paths, seed + 1000 * i)
        err = float(np.abs(xT - problem.exact_solution(x0, T, WT)).sum(axis=1).mean())
        if not (err > 0 and math.isfinite(err)):
            raise ValueError(f"strong error at step h = {h} is {err}; the order "
                             f"regression needs positive finite errors")
        errors.append(err)
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


def linear_problem(A, Bs, exact_solution: Callable | None = None, name: str = "") -> SdeProblem:
    """The linear system dx = A x dt + sum_i B_i x dW^i, with m = len(Bs) channels.

    Each word is a matrix times x.  Its letters, read right to left, each
    multiply the product on the right, a and L by A, B and G by their
    channel's B_i: GB(i1, i2) is B_{i2} B_{i1}.  Each word is built once.
    """
    A, Bs = np.asarray(A, dtype=np.float64), [np.asarray(B, dtype=np.float64) for B in Bs]
    m = len(Bs)
    if m == 0:
        raise ValueError("a linear problem needs at least one noise channel, got m = 0")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or any(B.shape != A.shape for B in Bs):
        names = ", ".join(f"B{i}" for i in range(1, m + 1))
        raise ValueError(f"A must be square and {names} of its shape, got shapes "
                         + ", ".join(str(M.shape) for M in [A, *Bs]))
    if not np.isfinite(np.stack([A, *Bs])).all():
        raise ValueError("A and the channel matrices must be finite")

    def entry(word):
        mats = []
        for indices in product(range(m), repeat=_arity(word)):
            M, idx = None, list(indices)
            for sym in reversed(word):
                S = Bs[idx.pop()] if sym in "BG" else A
                M = S if M is None else M @ S
            mats.append(M.T)
        Mt = np.reshape(mats, (m,) * _arity(word) + A.shape)  # C order: fast matmul
        return lambda x, t: x @ Mt

    ops = {w: entry(w) for w in required_words(list(SCHEME_ORDER)[-1])}
    return SdeProblem(A.shape[0], m, ops, exact_solution=exact_solution, name=name)


def gbm_problem(mu: float = 0.5, sigma: float = 1.0) -> SdeProblem:
    """Geometric Brownian motion dx = mu x dt + sigma x dW, with its lognormal flow."""

    def exact(x0, T, W_T):
        x0 = np.asarray(x0, dtype=np.float64).reshape(1)
        return x0 * np.exp((mu - 0.5 * sigma**2) * T + sigma * W_T[:, :1] * 1.0)

    return linear_problem([[mu]], [[[sigma]]], exact_solution=exact, name="gbm")


def bilinear_problem(A: np.ndarray | None = None, B1: np.ndarray | None = None,
                     B2: np.ndarray | None = None) -> SdeProblem:
    """dx = A x dt + B_1 x dW^1 + B_2 x dW^2: two non-commuting channels, 2 x 2 by default."""
    A = [[0.2, -0.3], [0.1, 0.1]] if A is None else A
    B1 = [[0.4, 0.1], [0.0, 0.3]] if B1 is None else B1
    B2 = [[0.0, -0.25], [0.35, 0.05]] if B2 is None else B2
    return linear_problem(A, (B1, B2), name="bilinear2d")
