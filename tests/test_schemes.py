import math

import numpy as np
import pytest

from stochtaylor.errors import IndexPattern, exact_error
from stochtaylor.planner import scheme_plan
from stochtaylor.sampling import GaussianPanel
from stochtaylor.schemes import (
    SdeProblem,
    StepContext,
    bilinear_problem,
    estimate_strong_order,
    gbm_problem,
    integrate_batch,
    required_words,
    step,
)


def _ctx(scheme, m, h, seed, plan=None, paths=None):
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
        return self.prob.op(word, self.x, 0.0, *idx)

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
        z = ctx.panel.data[0]
        assert ctx.integral((0,), (1,)) == pytest.approx(math.sqrt(h) * z[0], rel=1e-13)
        assert ctx.integral((1,), (1,)) == pytest.approx(
            -h**1.5 / 2 * (z[0] + z[1] / math.sqrt(3)), rel=1e-13)
        assert ctx.integral((2,), (1,)) == pytest.approx(
            h**2.5 / 3 * (z[0] + math.sqrt(3) / 2 * z[1] + z[2] / (2 * math.sqrt(5))),
            rel=1e-13)

    def test_integrals_share_one_panel(self):
        h = 0.125
        ctx = _ctx("milstein", 1, h, 7)
        z0 = ctx.panel.data[0, 0]
        i0 = ctx.integral((0,), (1,))
        i00 = ctx.integral((0, 0), (1, 1))
        assert i0 == pytest.approx(math.sqrt(h) * z0, rel=1e-13)
        assert i00 == pytest.approx((i0**2 - h) / 2, rel=1e-12)


class TestIntegrate:
    def test_single_step_equals_step(self):
        prob = gbm_problem()
        h = 0.5
        plan = scheme_plan(1.0, h)
        xT, _ = integrate_batch(prob, "milstein", [1.0], h, 1, 1, seed=11, plan=plan)
        rng = np.random.Generator(np.random.Philox(11))
        ctx = StepContext.sample("milstein", 1, h, rng, plan)
        expect = step(prob, "milstein", np.array([1.0]), 0.0, ctx)
        assert xT.shape == (1, 1)
        assert np.array_equal(xT[0], expect)

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

    def test_fine_reference_runs(self):
        prob = bilinear_problem()
        est = estimate_strong_order(prob, "milstein", [0.25, 0.125, 0.0625], 200,
                                    [1.0, 1.0], 0.5, seed=2, reference="fine",
                                    fine_factor=8)
        assert len(est.errors) == 3
        assert all(e > 0 for e in est.errors)

    def test_milstein_order_smoke(self):
        prob = gbm_problem()
        est = estimate_strong_order(prob, "milstein", [2**-3, 2**-4, 2**-5, 2**-6],
                                    3000, [1.0], 1.0, seed=21)
        assert 0.75 <= est.slope <= 1.25
