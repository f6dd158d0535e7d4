import math
from typing import Iterable, Tuple

import numpy as np
import pytest

from stochtaylor import schemes
from stochtaylor.errors import IndexPattern, exact_error
from stochtaylor.planner import (
    SCHEME_ORDER,
    _SCHEME_CASES,
    _TABLES,
    _family,
    case_catalog,
    scheme_plan,
)
from stochtaylor.sampling import GaussianPanel
from stochtaylor.schemes import (
    SdeProblem,
    StepContext,
    bilinear_problem,
    estimate_strong_order,
    gbm_problem,
    integrate_batch,
    linear_problem,
    required_words,
    step,
)


# The schemes printed term by term, with their helpers: the reference the
# table-driven ``step`` must match bit for bit.
def _index_tuples(m: int, k: int) -> Iterable[Tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for head in range(1, m + 1):
        for rest in _index_tuples(m, k - 1):
            yield (head,) + rest


def _mul(integral_value, vec):
    """Multiply per-path integral values with coefficient vectors."""
    integral_value = np.asarray(integral_value)
    vec = np.asarray(vec)
    if integral_value.ndim == 0:
        return integral_value * vec
    if vec.ndim == 1:  # batch integrals, common coefficient vector
        return np.multiply.outer(integral_value, vec)
    return integral_value[:, np.newaxis] * vec


def _printed_step(problem: SdeProblem, scheme: str, x, t: float, ctx: StepContext):
    """One explicit strong step, evaluated exactly as the scheme is printed."""
    problem.validate_for(scheme)
    x = np.asarray(x, dtype=np.float64)
    h = ctx.h
    m = problem.m
    I = ctx.integral

    def op(word, *indices):
        return problem.op(word, x, t)[tuple(i - 1 for i in indices)]

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


def _linear3(rng, n=2):
    """A linear problem with three non-commuting random noise channels."""
    return linear_problem(0.3 * rng.standard_normal((n, n)),
                          0.3 * rng.standard_normal((3, n, n)), name="linear3")


def _ctx(scheme, m, h, seed, plan=None, paths=1):
    rng = np.random.Generator(np.random.Philox(seed))
    return StepContext.sample(scheme, m, h, rng, plan, paths=paths)


class TestStep:
    def test_zero_noise_milstein_is_euler(self):
        prob = gbm_problem(mu=0.4, sigma=0.0)
        ctx = _ctx("milstein", 1, 0.1, 0)
        y = step(prob, "milstein", np.array([2.0]), 0.0, ctx)
        assert y[0] == pytest.approx(2.0 * (1 + 0.4 * 0.1), rel=1e-14)

    def test_gbm_milstein_closed_form(self):
        # driftless linear noise: x (1 + s I0 + s^2 (I0^2 - h)/2), any cap
        sig, h, x0 = 0.7, 0.25, 1.5
        prob = gbm_problem(mu=0.0, sigma=sig)
        ctx = _ctx("milstein", 1, h, 1)
        i0 = ctx.integral((0,), (1,))
        y = step(prob, "milstein", np.array([x0]), 0.0, ctx)
        expect = x0 * (1 + sig * i0 + sig**2 * (i0**2 - h) / 2)
        assert y[0] == pytest.approx(expect, rel=1e-13)

    def test_t25_deterministic_tail(self):
        mu, h, x0 = 0.4, 0.25, 2.0
        prob = gbm_problem(mu=mu, sigma=0.0)
        ctx = _ctx("t25", 1, h, 2)
        y = step(prob, "t25", np.array([x0]), 0.0, ctx)
        expect = x0 * (1 + mu * h + mu**2 * h**2 / 2 + mu**3 * h**3 / 6)
        assert y[0] == pytest.approx(expect, rel=1e-13)

    def test_missing_word_names_operator(self):
        prob = gbm_problem()
        del prob.ops["GGB"]
        ctx = _ctx("milstein", 1, 0.25, 3)
        step(prob, "milstein", np.array([1.0]), 0.0, ctx)  # milstein unaffected
        with pytest.raises(KeyError, match="GGB"):
            prob.validate_for("t15")

    def test_registry_entry_shape_checked(self):
        prob = gbm_problem()
        prob.ops["GB"] = lambda x, t: x  # one tuple's value, not the stack
        with pytest.raises(ValueError, match=r"'GB' gave shape \(2, 1\)"):
            prob.op("GB", np.ones((2, 1)), 0.0)

    def test_required_words_nested(self):
        w1 = set(required_words("milstein"))
        w2 = set(required_words("t15"))
        w3 = set(required_words("t20"))
        w4 = set(required_words("t25"))
        assert w1 < w2 < w3 < w4


class TestSchemeNesting:
    """Higher schemes differ from lower ones only by their exclusive terms."""

    def setup_method(self):
        self.prob = bilinear_problem()
        self.h = 0.25
        self.plan = scheme_plan(2.5, self.h)
        self.ctx = _ctx("t25", 2, self.h, 4, plan=self.plan)
        self.x = np.array([1.1, -0.4])

    def _op(self, word, *idx):
        return self.prob.op(word, self.x, 0.0)[tuple(i - 1 for i in idx)]

    def test_t15_minus_milstein(self):
        got = (step(self.prob, "t15", self.x, 0.0, self.ctx)
               - step(self.prob, "milstein", self.x, 0.0, self.ctx))
        h, I = self.h, self.ctx.integral
        expect = np.zeros(2)
        for i1 in (1, 2):
            expect = expect + (
                (h * I((0,), (i1,)) + I((1,), (i1,))) * self._op("Ga", i1)
                - I((1,), (i1,)) * self._op("LB", i1)
            )
        for i1 in (1, 2):
            for i2 in (1, 2):
                for i3 in (1, 2):
                    expect = expect + I((0, 0, 0), (i1, i2, i3)) * self._op("GGB", i1, i2, i3)
        expect = expect + h * h / 2 * self._op("La")
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_t20_minus_t15(self):
        got = (step(self.prob, "t20", self.x, 0.0, self.ctx)
               - step(self.prob, "t15", self.x, 0.0, self.ctx))
        h, I = self.h, self.ctx.integral
        expect = np.zeros(2)
        for i1 in (1, 2):
            for i2 in (1, 2):
                expect = expect + (
                    (I((1, 0), (i1, i2)) - I((0, 1), (i1, i2))) * self._op("GLB", i1, i2)
                    - I((1, 0), (i1, i2)) * self._op("LGB", i1, i2)
                    + (I((0, 1), (i1, i2)) + h * I((0, 0), (i1, i2))) * self._op("GGa", i1, i2)
                )
        for i1 in (1, 2):
            for i2 in (1, 2):
                for i3 in (1, 2):
                    for i4 in (1, 2):
                        expect = expect + (I((0, 0, 0, 0), (i1, i2, i3, i4))
                                           * self._op("GGGB", i1, i2, i3, i4))
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_t25_minus_t20(self):
        got = (step(self.prob, "t25", self.x, 0.0, self.ctx)
               - step(self.prob, "t20", self.x, 0.0, self.ctx))
        h, I = self.h, self.ctx.integral
        expect = (h**3 / 6) * self._op("LLa")
        for i1 in (1, 2):
            expect = expect + (
                (0.5 * I((2,), (i1,)) + h * I((1,), (i1,)) + h * h / 2 * I((0,), (i1,)))
                * self._op("GLa", i1)
                + 0.5 * I((2,), (i1,)) * self._op("LLB", i1)
                - (I((2,), (i1,)) + h * I((1,), (i1,))) * self._op("LGa", i1)
            )
        for i1 in (1, 2):
            for i2 in (1, 2):
                for i3 in (1, 2):
                    idx = (i1, i2, i3)
                    expect = expect + (
                        (I((1, 0, 0), idx) - I((0, 1, 0), idx)) * self._op("GLGB", *idx)
                        + (I((0, 1, 0), idx) - I((0, 0, 1), idx)) * self._op("GGLB", *idx)
                        + (h * I((0, 0, 0), idx) + I((0, 0, 1), idx)) * self._op("GGGa", *idx)
                        - I((1, 0, 0), idx) * self._op("LGGB", *idx)
                    )
        for idx in np.ndindex(2, 2, 2, 2, 2):
            idx = tuple(i + 1 for i in idx)
            expect = expect + I((0, 0, 0, 0, 0), idx) * self._op("GGGGB", *idx)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-14)


class TestWordOrder:
    """Each registry word is its leftmost operator applied to the rest of the word.

    For linear g, G_i g(x) = J_g B_i x and L g(x) = J_g A x, with J_g read off
    the registry entry of the rest evaluated on the basis vectors.
    """

    def test_words_match_operator_definitions(self):
        rng = np.random.default_rng(11)
        n, m = 3, 3
        A = rng.standard_normal((n, n))
        Bs = rng.standard_normal((m, n, n))
        prob = linear_problem(A, Bs)
        x = rng.standard_normal((4, n))
        basis = np.eye(n)
        assert np.allclose(prob.op("a", x, 0.0), x @ A.T, rtol=1e-13)
        for i in range(m):
            assert np.allclose(prob.op("B", x, 0.0)[i], x @ Bs[i].T, rtol=1e-13)
        for word in required_words("t25"):
            if len(word) == 1:
                continue
            head, rest = word[0], word[1:]
            got = prob.op(word, x, 0.0)
            # rows of the rest's entry on the basis are the columns of its Jacobian
            jac = np.swapaxes(prob.op(rest, basis, 0.0), -1, -2)
            for at in np.ndindex(got.shape[:-2]):
                if head == "G":
                    inner = x @ Bs[at[0]].T
                    expect = inner @ jac[at[1:]].T
                else:
                    expect = (x @ A.T) @ jac[at].T
                assert np.allclose(got[at], expect, rtol=1e-12, atol=1e-14), (word, at)


class TestLinearProblem:
    def test_channel_count_and_names(self):
        prob = _linear3(np.random.default_rng(0))
        assert (prob.n, prob.m, prob.name) == (2, 3, "linear3")
        assert prob.op("GGB", np.ones(2), 0.0).shape == (3, 3, 3, 2)

    def test_shape_message_names_every_channel(self):
        with pytest.raises(ValueError, match="A must be square and B1, B2, B3 of its shape"):
            linear_problem(np.eye(2), [np.eye(2), np.eye(2), np.eye(3)])

    def test_no_channel_rejected(self):
        with pytest.raises(ValueError, match="at least one noise channel, got m = 0"):
            linear_problem(np.eye(2), [])

    @pytest.mark.parametrize("bad", ["A", "B"])
    def test_non_finite_rejected(self, bad):
        A, B = np.eye(2), np.eye(2)
        if bad == "A":
            A = np.array([[np.nan, 0.0], [0.0, 1.0]])
        else:
            B = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            linear_problem(A, [B])


class TestPrintedOracle:
    """The table-driven step evaluates exactly what the printed step does."""

    PROBLEMS = {"gbm": gbm_problem, "bilinear2d": bilinear_problem,
                "linear3": lambda: _linear3(np.random.default_rng(5))}

    @pytest.mark.parametrize("paths", [1, 64])
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @pytest.mark.parametrize("scheme", list(SCHEME_ORDER))
    def test_step_and_endpoints_bit_identical(self, scheme, problem, paths, monkeypatch):
        prob = self.PROBLEMS[problem]()
        x0 = np.linspace(1.0, -0.5, prob.n)
        ctx = _ctx(scheme, prob.m, 0.25, 3, paths=paths)
        x = np.broadcast_to(x0, (paths, prob.n))
        assert np.array_equal(step(prob, scheme, x, 0.0, ctx),
                              _printed_step(prob, scheme, x, 0.0, ctx))
        got = integrate_batch(prob, scheme, x0, 1.0, 4, paths, seed=3)
        monkeypatch.setattr(schemes, "step", _printed_step)
        expect = integrate_batch(prob, scheme, x0, 1.0, 4, paths, seed=3)
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])


class TestSchemeTables:
    @pytest.mark.parametrize("table_id,order,n_cases",
                             [(10, 1.0, 1), (11, 1.5, 2), (12, 2.0, 5), (13, 2.5, 9)])
    def test_scheme_table_names_plan_profiles(self, table_id, order, n_cases):
        # tables 10-13 list the multiplicity >= 2 integrals of each scheme
        spec = _TABLES[table_id]
        assert spec.cases == _SCHEME_CASES[:n_cases]
        assert spec.exponent == 2 * order + 1
        tabled = {tuple(case_catalog(*_family(glob))[0][1]) for glob in spec.cases}
        planned = {w for w in scheme_plan(order, 0.5).orders if len(w) >= 2}
        assert tabled == planned


class TestConditionWiring:
    @pytest.mark.parametrize("order,exponent", [(1.0, 3), (1.5, 4), (2.0, 5), (2.5, 6)])
    def test_plan_meets_mean_square_condition(self, order, exponent):
        h = 0.25
        plan = scheme_plan(order, h)
        for weights, cap in plan.items():
            k = len(weights)
            if k == 1:
                # finite expansions are exact at cap = weight exponent
                assert cap == weights[0]
                continue
            err = exact_error(weights, IndexPattern.distinct(k), cap, h).value
            assert err <= h**exponent + 1e-15


class TestCoupling:
    def test_k1_integrals_are_exact_panel_combinations(self):
        h = 0.25
        ctx = _ctx("t25", 1, h, 6, plan=scheme_plan(2.5, h))
        z = ctx.panel.data[0, 0]  # the one path's component 1
        assert ctx.integral((0,), (1,)) == pytest.approx(math.sqrt(h) * z[0], rel=1e-13)
        assert ctx.integral((1,), (1,)) == pytest.approx(
            -h**1.5 / 2 * (z[0] + z[1] / math.sqrt(3)), rel=1e-13)
        assert ctx.integral((2,), (1,)) == pytest.approx(
            h**2.5 / 3 * (z[0] + math.sqrt(3) / 2 * z[1] + z[2] / (2 * math.sqrt(5))),
            rel=1e-13)

    def test_integrals_share_one_panel(self):
        h = 0.125
        ctx = _ctx("milstein", 1, h, 7)
        z0 = ctx.panel.data[:, 0, 0]
        i0 = ctx.integral((0,), (1,))
        i00 = ctx.integral((0, 0), (1, 1))
        assert i0 == pytest.approx(math.sqrt(h) * z0, rel=1e-13)
        assert i00 == pytest.approx((i0**2 - h) / 2, rel=1e-12)

    @pytest.mark.parametrize("problem,scheme,h,p_max", [
        (gbm_problem(), "t15", 2.0**-7, 16),
        (bilinear_problem(), "t25", 0.25, 32),
    ])
    def test_panel_width(self, problem, scheme, h, p_max):
        # the width fixes the random stream: a change re-seeds every scheme run
        ctx = StepContext.sample(scheme, problem.m, h, np.random.default_rng(0), paths=2)
        assert ctx.panel.p_max == p_max


class TestPlanFit:
    def test_lower_order_plan_rejected(self):
        with pytest.raises(ValueError, match=r"order 2.5 at h = 0.25.*order 1.0 at step 0.5"):
            integrate_batch(gbm_problem(), "t25", [1.0], 1.0, 4, 3, 0, plan=scheme_plan(1.0, 0.5))

    def test_other_step_plan_rejected(self):
        with pytest.raises(ValueError, match=r"order 2.5 at h = 0.25.*order 2.5 at step 0.5"):
            integrate_batch(gbm_problem(), "t25", [1.0], 1.0, 4, 3, 0, plan=scheme_plan(2.5, 0.5))

    def test_rounded_step_accepted(self):
        # T / n_steps rounds: 0.3 / 3 is not 0.1
        h = 0.3 / 3
        assert h != 0.1
        xT, _ = integrate_batch(gbm_problem(), "milstein", [1.0], 0.3, 3, 2, 0,
                                plan=scheme_plan(1.0, 0.1))
        assert xT.shape == (2, 1)


class TestIntegrate:
    def test_single_step_equals_step(self):
        prob = gbm_problem()
        h = 0.5
        plan = scheme_plan(1.0, h)
        xT, _ = integrate_batch(prob, "milstein", [1.0], h, 1, 1, seed=11, plan=plan)
        rng = np.random.Generator(np.random.Philox(11))
        ctx = StepContext.sample("milstein", 1, h, rng, plan, paths=1)
        expect = step(prob, "milstein", np.array([[1.0]]), 0.0, ctx)
        assert xT.shape == (1, 1)
        assert np.array_equal(xT, expect)

    def test_deterministic_linear_t25_matches_matrix_taylor(self):
        A = np.array([[0.3, -0.2], [0.1, 0.25]])
        prob = bilinear_problem(A, np.zeros((2, 2)), np.zeros((2, 2)))
        h = 0.2
        plan = scheme_plan(2.5, h)
        x0 = np.array([1.0, -1.0])
        xT, _ = integrate_batch(prob, "t25", x0, 5 * h, 5, 1, seed=1, plan=plan)
        I2 = np.eye(2)
        prop = I2 + h * A + h**2 / 2 * A @ A + h**3 / 6 * A @ A @ A
        expect = x0.copy()
        for _ in range(5):
            expect = prop @ expect
        assert np.allclose(xT[0], expect, rtol=1e-12)

    @pytest.mark.parametrize("matrices", [
        {"A": np.eye(3)}, {"A": np.ones((2, 3))}, {"A": np.ones(2)},
        {"B1": np.eye(3)}, {"B2": np.ones((2, 1))},
    ])
    def test_bilinear_shape_mismatch_rejected(self, matrices):
        with pytest.raises(ValueError, match="A must be square and B1, B2 of its shape"):
            bilinear_problem(**matrices)

    @pytest.mark.parametrize("paths,n_steps", [(0, 4), (-3, 4), (8, 0)])
    def test_empty_run_rejected(self, paths, n_steps):
        message = f"paths and n_steps must be at least 1, got {paths} and {n_steps}"
        with pytest.raises(ValueError, match=message):
            integrate_batch(gbm_problem(), "milstein", [1.0], 1.0, n_steps, paths, seed=0)

    @pytest.mark.parametrize("x0", [[1.0, 2.0], [[1.0], [1.0]], []])
    def test_x0_size_rejected(self, x0):
        with pytest.raises(ValueError, match=r"x0 must be n = 1 finite values, got"):
            integrate_batch(gbm_problem(), "milstein", x0, 1.0, 4, 2, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_x0_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="x0 must be n = 2 finite values"):
            integrate_batch(bilinear_problem(), "t15", [1.0, value], 1.0, 4, 2, seed=0)

    def test_batch_reproducible(self):
        prob = gbm_problem()
        a = integrate_batch(prob, "milstein", [1.0], 1.0, 8, 64, seed=5)
        b = integrate_batch(prob, "milstein", [1.0], 8 / 8, 8, 64, seed=5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestStrongOrder:
    def test_gbm_exact_reference_coupling(self):
        # one-step endpoint equals the closed-form solution evaluated at the
        # accumulated Wiener endpoint, up to the scheme's local error
        prob = gbm_problem(mu=0.2, sigma=0.5)
        xT, WT = integrate_batch(prob, "t15", [1.0], 0.5, 64, 256, seed=9)
        ref = prob.exact_solution(np.array([1.0]), 0.5, WT)
        assert np.abs(xT - ref).mean() < 1e-3

    def test_requires_three_steps(self):
        prob = gbm_problem()
        with pytest.raises(ValueError):
            estimate_strong_order(prob, "milstein", [0.1, 0.05], 100, [1.0], 1.0)

    def test_requires_three_distinct_steps(self):
        prob = gbm_problem()
        with pytest.raises(ValueError, match="3 distinct step sizes"):
            estimate_strong_order(prob, "milstein", [0.5, 0.5, 0.5], 100, [1.0], 1.0)

    @pytest.mark.parametrize("steps", [[0.0, 0.5, 0.25], [float("nan"), 0.5, 0.25]])
    def test_bad_step_rejected(self, steps):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_strong_order(gbm_problem(), "milstein", steps, 10, [1.0], 1.0)

    @pytest.mark.parametrize("problem,kwargs,message", [
        (bilinear_problem, {}, "problem has no exact solution"),
        (gbm_problem, {"reference": "coarse"}, "reference must be 'exact', got 'coarse'"),
        (gbm_problem, {"reference": "fine"}, "reference must be 'exact', got 'fine'"),
    ])
    def test_bad_reference_fails_before_integrating(self, problem, kwargs, message, monkeypatch):
        calls = []
        monkeypatch.setattr(schemes, "integrate_batch", lambda *a, **k: calls.append(a))
        prob = problem()
        with pytest.raises(ValueError, match=message):
            estimate_strong_order(prob, "t15", [2**-4, 2**-5, 2**-6], 20000,
                                  [1.0] * prob.n, 1.0, **kwargs)
        assert calls == []

    def test_zero_error_rejected(self):
        # x0 = 0 stays at 0 on every path, so the error is 0 and log 0 is undefined
        with pytest.raises(ValueError, match=r"strong error at step h = 0.5 is 0.0"):
            estimate_strong_order(gbm_problem(), "t15", [0.5, 0.25, 0.125], 10, [0.0], 1.0)

    def test_milstein_order_smoke(self):
        prob = gbm_problem()
        est = estimate_strong_order(prob, "milstein", [2**-3, 2**-4, 2**-5, 2**-6],
                                    3000, [1.0], 1.0, seed=21)
        assert 0.75 <= est.slope <= 1.25
