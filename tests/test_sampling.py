"""Sampler verification.

The key oracles are literal transcriptions of the printed expansions for
multiplicities 2..5 (every indicator term written out) evaluated
coefficient-by-coefficient, plus the left-point discretization oracle whose
elementary identities are checked exactly.
"""

import math
from itertools import product
from typing import List

import numpy as np
import pytest

from stochtaylor import coefficients
from stochtaylor.coefficients import WeightProfile, get_tensor, scaled_coefficient
from stochtaylor.errors import IndexPattern, exact_error
from stochtaylor.sampling import (
    GaussianPanel,
    IntegralSpec,
    PairPartition,
    discretization_oracle,
    enumerate_pair_partitions,
    make_panel,
    sample_ito,
    sample_stratonovich,
    wiener_increments,
    zetas_from_increments,
)


def _d(i, j):
    return 1.0 if i == j else 0.0


def transcribe_k2(spec, p, z):
    i1, i2 = spec.wiener_indices
    total = 0.0
    for j1, j2 in product(range(p + 1), repeat=2):
        c = scaled_coefficient(spec.profile, (j1, j2), spec.T_minus_t)
        total += c * (z(i1, j1) * z(i2, j2) - _d(i1, i2) * _d(j1, j2))
    return total


def transcribe_k3(spec, p, z):
    i1, i2, i3 = spec.wiener_indices
    total = 0.0
    for j1, j2, j3 in product(range(p + 1), repeat=3):
        c = scaled_coefficient(spec.profile, (j1, j2, j3), spec.T_minus_t)
        term = (
            z(i1, j1) * z(i2, j2) * z(i3, j3)
            - _d(i1, i2) * _d(j1, j2) * z(i3, j3)
            - _d(i2, i3) * _d(j2, j3) * z(i1, j1)
            - _d(i1, i3) * _d(j1, j3) * z(i2, j2)
        )
        total += c * term
    return total


def transcribe_k4(spec, p, z):
    i1, i2, i3, i4 = spec.wiener_indices
    total = 0.0
    for j1, j2, j3, j4 in product(range(p + 1), repeat=4):
        c = scaled_coefficient(spec.profile, (j1, j2, j3, j4), spec.T_minus_t)
        term = (
            z(i1, j1) * z(i2, j2) * z(i3, j3) * z(i4, j4)
            - _d(i1, i2) * _d(j1, j2) * z(i3, j3) * z(i4, j4)
            - _d(i1, i3) * _d(j1, j3) * z(i2, j2) * z(i4, j4)
            - _d(i1, i4) * _d(j1, j4) * z(i2, j2) * z(i3, j3)
            - _d(i2, i3) * _d(j2, j3) * z(i1, j1) * z(i4, j4)
            - _d(i2, i4) * _d(j2, j4) * z(i1, j1) * z(i3, j3)
            - _d(i3, i4) * _d(j3, j4) * z(i1, j1) * z(i2, j2)
            + _d(i1, i2) * _d(j1, j2) * _d(i3, i4) * _d(j3, j4)
            + _d(i1, i3) * _d(j1, j3) * _d(i2, i4) * _d(j2, j4)
            + _d(i1, i4) * _d(j1, j4) * _d(i2, i3) * _d(j2, j3)
        )
        total += c * term
    return total


def transcribe_k5(spec, p, z):
    i = (None,) + spec.wiener_indices  # 1-based
    total = 0.0
    pairs = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    pair_pairs = [
        ((1, 2), (3, 4)), ((1, 2), (3, 5)), ((1, 2), (4, 5)),
        ((1, 3), (2, 4)), ((1, 3), (2, 5)), ((1, 3), (4, 5)),
        ((1, 4), (2, 3)), ((1, 4), (2, 5)), ((1, 4), (3, 5)),
        ((1, 5), (2, 3)), ((1, 5), (2, 4)), ((1, 5), (3, 4)),
        ((2, 3), (4, 5)), ((2, 4), (3, 5)), ((2, 5), (3, 4)),
    ]
    for j in product(range(p + 1), repeat=5):
        c = scaled_coefficient(spec.profile, j, spec.T_minus_t)
        jj = (None,) + j
        term = 1.0
        for m in range(1, 6):
            term *= z(i[m], jj[m])
        for a, b in pairs:
            if i[a] == i[b] and jj[a] == jj[b]:
                rest = [m for m in range(1, 6) if m not in (a, b)]
                prod_rest = 1.0
                for m in rest:
                    prod_rest *= z(i[m], jj[m])
                term -= prod_rest
        for (a, b), (cc, dd) in pair_pairs:
            if i[a] == i[b] and jj[a] == jj[b] and i[cc] == i[dd] and jj[cc] == jj[dd]:
                single = [m for m in range(1, 6) if m not in (a, b, cc, dd)][0]
                term += z(i[single], jj[single])
        total += c * term
    return total


# The einsum contraction the samplers used before the one-loop Wick sum,
# kept verbatim (with its coefficient slicing) as the per-path oracle.
def _all_partitions(k: int) -> List[PairPartition]:
    parts: List[PairPartition] = []
    for r in range(1, k // 2 + 1):
        parts.extend(enumerate_pair_partitions(k, r))
    return parts


def _bracket_terms(spec: IntegralSpec, p: int, panel: GaussianPanel,
                   coeff: np.ndarray) -> np.ndarray:
    """Sum over the truncated box of coefficient times Wick bracket."""
    k = spec.k
    idx = spec.wiener_indices
    zs = [panel.component(i, p) for i in idx]
    letters = "abcdef"[:k]
    total = _plain_product(coeff, zs)
    # pair-partition corrections
    n_paths = zs[0].shape[0]
    for part in _all_partitions(k):
        if any(idx[a - 1] != idx[b - 1] for a, b in part.pairs):
            continue
        sub = list(letters)
        for a, b in part.pairs:
            sub[b - 1] = sub[a - 1]
        if part.singletons:
            operands = [zs[q - 1] for q in part.singletons]
            lhs = ["".join(sub)] + ["z" + sub[q - 1] for q in part.singletons]
            term = np.einsum(",".join(lhs) + "->z", coeff, *operands, optimize=True)
        else:
            term = np.full(n_paths, np.einsum("".join(sub) + "->", coeff))
        total = total + (-1.0) ** part.r * term
    return total


def _plain_product(coeff: np.ndarray, zs) -> np.ndarray:
    """Per-path sum over the box of coefficient times the plain zeta product."""
    letters = "abcdef"[:len(zs)]
    expr = ",".join([letters] + [f"z{c}" for c in letters]) + "->z"
    return np.einsum(expr, coeff, *zs, optimize=True)


def _coeff_array(spec: IntegralSpec, p: int) -> np.ndarray:
    tensor = get_tensor(spec.profile, p)
    arr = tensor.scaled_array()
    if tensor.p > p:
        arr = arr[(slice(0, p + 1),) * spec.k]
    k, L = spec.profile.k, spec.profile.total_weight
    return arr * spec.T_minus_t ** (k / 2 + L)


def _equality_patterns(k, m):
    """Index tuples over 1..m, one per pattern of equal components."""
    if k == 0:
        return [()]
    return [head + (i,) for head in _equality_patterns(k - 1, m)
            for i in range(1, min(m, max(head, default=0) + 1) + 1)]


class TestPairPartitions:
    @pytest.mark.parametrize("k,r", [(k, r) for k in range(1, 7) for r in range(0, k // 2 + 1)])
    def test_counts(self, k, r):
        got = len(enumerate_pair_partitions(k, r))
        expect = math.factorial(k) // (2**r * math.factorial(r) * math.factorial(k - 2 * r))
        assert got == expect

    def test_published_examples(self):
        assert enumerate_pair_partitions(2, 1)[0].pairs == ((1, 2),)
        matchings = {frozenset(map(frozenset, p.pairs)) for p in enumerate_pair_partitions(4, 2)}
        assert matchings == {
            frozenset({frozenset({1, 2}), frozenset({3, 4})}),
            frozenset({frozenset({1, 3}), frozenset({2, 4})}),
            frozenset({frozenset({1, 4}), frozenset({2, 3})}),
        }
        assert len(enumerate_pair_partitions(5, 2)) == 15

    def test_partition_is_exhaustive_and_disjoint(self):
        for part in enumerate_pair_partitions(6, 2):
            members = [x for pair in part.pairs for x in pair] + list(part.singletons)
            assert sorted(members) == list(range(1, 7))

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_pair_partitions(3, 2)


class TestSampleIto:
    def test_single_integral_example(self):
        panel = GaussianPanel(np.array([[1.5, 0.0, 0.0]]))
        assert sample_ito(IntegralSpec((0,), (1,), 4.0), 2, panel) == pytest.approx(3.0)

    def test_pair_equal_indicator(self):
        z = 0.7
        panel = GaussianPanel(np.array([[z]]))
        got = sample_ito(IntegralSpec((0, 0), (1, 1), 2.0), 0, panel)
        assert got == pytest.approx((2.0 / 2) * (z * z - 1))

    def test_pair_distinct_zero_panel(self):
        panel = GaussianPanel(np.zeros((2, 2)))
        assert sample_ito(IntegralSpec((0, 0), (1, 2), 1.0), 1, panel) == 0.0

    def test_triple_zero_panel(self):
        panel = GaussianPanel(np.zeros((3, 3)))
        assert sample_ito(IntegralSpec((0, 0, 0), (1, 2, 3), 1.0), 2, panel) == 0.0

    def test_single_integral_closed_forms(self):
        rng = np.random.default_rng(5)
        panel = make_panel(rng, 1, 4, paths=7)
        h = 0.61
        z = panel.data[:, 0, :]
        got0 = sample_ito(IntegralSpec((0,), (1,), h), 4, panel)
        assert got0 == pytest.approx(math.sqrt(h) * z[:, 0], rel=1e-12)
        got1 = sample_ito(IntegralSpec((1,), (1,), h), 4, panel)
        expect1 = -h**1.5 / 2 * (z[:, 0] + z[:, 1] / math.sqrt(3))
        assert got1 == pytest.approx(expect1, rel=1e-12)
        got2 = sample_ito(IntegralSpec((2,), (1,), h), 4, panel)
        expect2 = h**2.5 / 3 * (z[:, 0] + math.sqrt(3) / 2 * z[:, 1]
                                + z[:, 2] / (2 * math.sqrt(5)))
        assert got2 == pytest.approx(expect2, rel=1e-12)

    @pytest.mark.parametrize("k,indices_pool", [
        (2, [(1, 1), (1, 2)]),
        (3, [(1, 1, 1), (1, 2, 1), (1, 2, 3), (2, 2, 1)]),
        (4, [(1, 1, 2, 2), (1, 2, 3, 4), (1, 1, 1, 1), (1, 2, 1, 2)]),
        (5, [(1, 1, 2, 2, 3), (1, 2, 3, 4, 5), (1, 1, 1, 2, 2), (2, 1, 2, 1, 2)]),
    ])
    def test_generic_matches_literal_transcription(self, k, indices_pool):
        transcribers = {2: transcribe_k2, 3: transcribe_k3, 4: transcribe_k4, 5: transcribe_k5}
        rng = np.random.default_rng(100 + k)
        p = 2 if k >= 4 else 3
        n_panels = 100 // len(indices_pool)
        for indices in indices_pool:
            spec = IntegralSpec((0,) * k, indices, 0.83)
            for _ in range(n_panels):
                panel = make_panel(rng, max(indices), p)

                def z(i, j):
                    return float(panel.data[i - 1, j])

                got = sample_ito(spec, p, panel)
                expect = transcribers[k](spec, p, z)
                assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_weighted_profile_transcription(self):
        rng = np.random.default_rng(77)
        for profile in [(0, 1), (1, 0)]:
            for indices in [(1, 1), (1, 2)]:
                spec = IntegralSpec(profile, indices, 0.44)
                panel = make_panel(rng, 2, 3)

                def z(i, j):
                    return float(panel.data[i - 1, j])

                assert sample_ito(spec, 3, panel) == pytest.approx(
                    transcribe_k2(spec, 3, z), rel=1e-12)

    def test_insufficient_panel(self):
        panel = GaussianPanel(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            sample_ito(IntegralSpec((0, 0, 0), (1, 1, 1), 1.0), 5, panel)
        with pytest.raises(ValueError):
            panel.component(2, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (1,), 1.0)
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (0, 1), 1.0)
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (1, 1), 0.0)
        with pytest.raises(ValueError, match="nan"):
            IntegralSpec((0, 0), (1, 1), float("nan"))


class TestStratonovich:
    def test_equals_ito_for_distinct(self):
        rng = np.random.default_rng(8)
        panel = make_panel(rng, 2, 6, paths=20)
        spec = IntegralSpec((0, 0), (1, 2), 0.9)
        a = sample_ito(spec, 6, panel)
        b = sample_stratonovich(spec, 6, panel)
        # identical up to float ordering of the two evaluation routes
        assert np.allclose(a, b, rtol=0, atol=1e-13)

    def test_diagonal_shift_pair(self):
        # equal components: difference is the diagonal coefficient sum, which
        # telescopes to (T-t)/2 at every cap for the all-zero-weight pair
        rng = np.random.default_rng(9)
        panel = make_panel(rng, 1, 12, paths=11)
        h = 0.62
        spec = IntegralSpec((0, 0), (1, 1), h)
        for p in (0, 3, 12):
            a = sample_ito(spec, p, panel)
            b = sample_stratonovich(spec, p, panel)
            assert np.allclose(b - a, h / 2, rtol=1e-12)

    def test_triple_zero_panel(self):
        panel = GaussianPanel(np.zeros((1, 4)))
        assert sample_stratonovich(IntegralSpec((0, 0, 0), (1, 1, 1), 1.0), 3, panel) == 0.0

    def test_multiplicity_six_plain_sum(self):
        rng = np.random.default_rng(10)
        panel = make_panel(rng, 2, 1)
        spec = IntegralSpec((0,) * 6, (1, 2, 1, 2, 1, 2), 1.0)
        got = sample_stratonovich(spec, 1, panel)
        expect = 0.0
        for j in product(range(2), repeat=6):
            c = scaled_coefficient((0,) * 6, j, 1.0)
            term = c
            for m, jm in enumerate(j):
                term *= float(panel.data[spec.wiener_indices[m] - 1, jm])
            expect += term
        assert got == pytest.approx(expect, rel=1e-10)


class TestContractionOracle:
    # every index tuple for k <= 3; every pattern of equal components, so
    # repeats in adjacent and non-adjacent positions, for k = 4 and 5
    CAPS = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2}

    @pytest.mark.parametrize("profile", [
        (0,), (1,), (0, 1), (1, 0), (2, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0),
        (1, 0, 0), (0,) * 4, (0, 0, 0, 1), (0,) * 5,
    ])
    def test_per_path_values_match_einsum(self, profile):
        k = len(profile)
        p = self.CAPS[k]
        batched = make_panel(np.random.default_rng(sum(profile) + 10 * k), 3, p, paths=64)
        single = GaussianPanel(batched.data[1])
        tuples = (list(product((1, 2, 3), repeat=k)) if k <= 3
                  else _equality_patterns(k, 3))
        for indices in tuples:
            spec = IntegralSpec(profile, indices, 0.7)
            coeff = _coeff_array(spec, p)
            for panel in (batched, single):
                zs = [panel.component(i, p) for i in indices]
                for new, old in [(sample_ito, _bracket_terms(spec, p, panel, coeff)),
                                 (sample_stratonovich, _plain_product(coeff, zs))]:
                    got = np.atleast_1d(new(spec, p, panel))
                    assert got.shape == old.shape
                    tol = 1e-12 * max(1.0, np.abs(old).max())
                    assert np.abs(got - old).max() <= tol, (new.__name__, indices)


class TestNegativeCap:
    # a warm tensor cache must not turn a negative cap into a silent zero
    @pytest.fixture(params=["cold", "warm"])
    def cache(self, request, monkeypatch):
        monkeypatch.setattr(coefficients, "_tensor_cache", {})
        if request.param == "warm":
            get_tensor((0, 0, 0), 2)
            get_tensor((0, 0), 2)

    @pytest.mark.parametrize("sampler", [sample_ito, sample_stratonovich])
    @pytest.mark.parametrize("profile,indices,p", [
        ((0, 0, 0), (1, 2, 3), -1), ((0, 0), (1, 2), -1), ((0, 0), (1, 1), -3),
    ])
    def test_samplers_reject(self, cache, sampler, profile, indices, p):
        panel = make_panel(np.random.default_rng(0), 3, 2, paths=4)
        with pytest.raises(ValueError, match=f"cap p must be non-negative, got p={p}"):
            sampler(IntegralSpec(profile, indices, 1.0), p, panel)

    def test_zetas_from_increments_rejects(self, cache):
        inc = wiener_increments(np.random.default_rng(0), 2, 16, 1.0, paths=3)
        with pytest.raises(ValueError, match="cap p must be non-negative, got p=-1"):
            zetas_from_increments(inc, -1, 1.0)


class TestDiscretizationOracle:
    def test_single_is_total_increment(self):
        rng = np.random.default_rng(11)
        inc = wiener_increments(rng, 1, 256, 0.8, paths=5)
        got = discretization_oracle(IntegralSpec((0,), (1,), 0.8), inc)
        assert np.allclose(got, inc.sum(axis=2)[:, 0], rtol=1e-12)

    def test_pair_equal_identity(self):
        # left-point sum identity: sum W dW = (W_T^2 - sum dW^2) / 2, exact
        rng = np.random.default_rng(12)
        inc = wiener_increments(rng, 1, 128, 1.3, paths=6)
        got = discretization_oracle(IntegralSpec((0, 0), (1, 1), 1.3), inc)
        W = inc.sum(axis=2)[:, 0]
        sq = (inc**2).sum(axis=2)[:, 0]
        assert np.allclose(got, (W**2 - sq) / 2, rtol=1e-12)

    def test_single_path_shape(self):
        rng = np.random.default_rng(13)
        inc = wiener_increments(rng, 2, 64, 0.5)
        val = discretization_oracle(IntegralSpec((0, 0), (1, 2), 0.5), inc)
        assert isinstance(val, float)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            discretization_oracle(IntegralSpec((0,), (1,), 1.0), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            discretization_oracle(IntegralSpec((0, 0), (1, 2), 1.0), np.zeros((1, 8)))

    @pytest.mark.parametrize("profile,indices,pattern", [
        ((0, 0), (1, 2), IndexPattern.distinct(2)),
        ((1, 0), (1, 2), IndexPattern.distinct(2)),
        ((0, 0, 0), (1, 2, 3), IndexPattern.distinct(3)),
    ])
    def test_mse_matches_exact_error(self, profile, indices, pattern):
        rng = np.random.default_rng(hash((profile, indices)) & 0xFFFF)
        paths, N = 30000, 512
        m = max(indices)
        inc = wiener_increments(rng, m, N, 1.0, paths=paths)
        spec = IntegralSpec(profile, indices, 1.0)
        oracle = discretization_oracle(spec, inc)
        panel = zetas_from_increments(inc, 5, 1.0)
        for p in (0, 5):
            approx = sample_ito(spec, p, panel)
            d = (oracle - approx) ** 2
            emp, se = d.mean(), d.std() / math.sqrt(paths)
            exact = exact_error(WeightProfile(profile), pattern, p, 1.0).value
            allowance = len(profile) ** 2 / N
            assert abs(emp - exact) <= 4 * se + allowance


class TestStatistics:
    def test_zero_mean(self):
        rng = np.random.default_rng(14)
        paths = 100_000
        panel = make_panel(rng, 3, 6, paths=paths)
        for profile, indices in [
            ((0,), (1,)), ((1,), (1,)), ((2,), (1,)),
            ((0, 0), (1, 1)), ((0, 0), (1, 2)),
            ((1, 0), (1, 1)), ((0, 1), (1, 2)),
            ((0, 0, 0), (1, 2, 3)), ((0, 0, 0), (1, 1, 1)),
            ((0, 0, 1), (1, 2, 1)), ((0, 0, 0, 0), (1, 2, 1, 2)),
            ((0, 0, 0, 0, 0), (1, 1, 2, 2, 3)),
        ]:
            spec = IntegralSpec(profile, indices, 1.0)
            vals = sample_ito(spec, 6, panel)
            se = vals.std() / math.sqrt(paths)
            assert abs(vals.mean()) <= 4 * se, (profile, indices)

    def test_second_moment_deficit(self):
        # sample variance approaches the kernel norm from below; the deficit
        # at cap 50 is exactly 1/404 for the all-zero-weight pair (the exact
        # rational identity is covered in the Parseval tests; here the
        # sampler's variance is checked against the deficient target)
        rng = np.random.default_rng(15)
        paths = 1_000_000
        panel = make_panel(rng, 2, 50, paths=paths)
        spec = IntegralSpec((0, 0), (1, 2), 1.0)
        vals = sample_ito(spec, 50, panel)
        target = 0.5 - 1.0 / 404.0
        var = vals.var()
        se = (vals**2).std() / math.sqrt(paths)
        assert abs(var - target) <= 4 * se


class TestPanel:
    def test_reproducible_streams(self):
        a = make_panel(np.random.Generator(np.random.Philox(42)), 2, 5, paths=3)
        b = make_panel(np.random.Generator(np.random.Philox(42)), 2, 5, paths=3)
        assert np.array_equal(a.data, b.data)

    def test_moments(self):
        panel = make_panel(np.random.Generator(np.random.Philox(1)), 2, 9, paths=200_000)
        flat = panel.data.reshape(-1)
        n = flat.size
        assert abs(flat.mean()) < 4 / math.sqrt(n)
        assert abs(flat.var() - 1.0) < 4 * math.sqrt(2.0 / n)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianPanel(np.zeros(4))
