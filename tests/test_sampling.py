"""Sampler verification.

The key oracles are literal transcriptions of the printed expansions for
multiplicities 2..5 (every indicator term written out) evaluated
coefficient-by-coefficient, plus the left-point discretization oracle whose
elementary identities are checked exactly.  A tensor Gauss-Hermite rule
on the panel gives the sampler's mean and second moment exactly.
"""

import functools
import math
import tracemalloc
from dataclasses import dataclass
from itertools import product
from typing import List, Tuple

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from stochtaylor import coefficients, sampling
from stochtaylor.coefficients import WeightProfile, exact_norm, get_tensor
from stochtaylor.errors import IndexPattern, exact_error, normalized_error
from stochtaylor.legendre import eval_phi
from stochtaylor.planner import TruncationPlan, case_catalog, scheme_plan
from stochtaylor.sampling import (
    GaussianPanel,
    IntegralSpec,
    discretization_oracle,
    make_panel,
    oracle_mse,
    sample_ito,
    stack_ito,
    wiener_increments,
    zetas_from_increments,
)
from stochtaylor.schemes import StepContext
from test_coefficients import scaled_coefficient


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


@dataclass(frozen=True)
class PairPartition:
    """r disjoint unordered pairs plus the leftover singletons of {1..k}."""

    pairs: Tuple[Tuple[int, int], ...]
    singletons: Tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.pairs)


def enumerate_pair_partitions(k: int, r: int) -> List[PairPartition]:
    """Partition oracle: all ways to pick r unordered disjoint pairs out of {1..k}.

    Count is k! / (2^r r! (k-2r)!).  Enumeration pairs the smallest free
    element with each larger one, so it is exhaustive and duplicate-free by
    construction.
    """
    if r < 0 or 2 * r > k:
        raise ValueError(f"need 0 <= 2r <= k, got k={k}, r={r}")
    out: List[PairPartition] = []

    def rec(free: Tuple[int, ...], pairs: Tuple[Tuple[int, int], ...],
            singles: Tuple[int, ...], left: int):
        if left == 0:
            out.append(PairPartition(pairs, singles + free))
            return
        if len(free) < 2 * left:
            return
        head, rest = free[0], free[1:]
        for idx, other in enumerate(rest):
            rec(rest[:idx] + rest[idx + 1:], pairs + ((head, other),), singles, left - 1)
        rec(rest, pairs, singles + (head,), left)

    rec(tuple(range(1, k + 1)), (), (), r)
    return out


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


# The discretization oracle before it streamed path blocks, kept verbatim as
# the reference the blocked one must equal bit for bit.
def _whole_array_oracle(spec: IntegralSpec, increments: np.ndarray):
    arr = np.asarray(increments, dtype=np.float64)
    single = arr.ndim == 2
    if single:
        arr = arr[np.newaxis, ...]
    paths, m, N = arr.shape
    if N < 2:
        raise ValueError("need at least a 2-point grid")
    if max(spec.wiener_indices) > m:
        raise ValueError("increments cover fewer components than the integral needs")
    dt = spec.T_minus_t / N
    s_left = np.arange(N) * dt
    running = np.ones((paths, N))
    for m_, (l, i) in enumerate(zip(spec.profile, spec.wiener_indices)):
        weight = (-s_left) ** l if l else 1.0
        contrib = running * weight * arr[:, i - 1, :]
        csum = np.cumsum(contrib, axis=1)
        if m_ == spec.k - 1:
            return csum[:, -1] if not single else float(csum[0, -1])
        # shift: inner integral evaluated at the left endpoint of the next level
        running = np.concatenate([np.zeros((paths, 1)), csum[:, :-1]], axis=1)
    raise AssertionError("unreachable")


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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sampler_partitions_match_oracle_in_order(self, k):
        # the Wick sums add the terms in this order, so the float bits depend on it
        expect = [(part.pairs, part.singletons)
                  for r in range(k // 2 + 1) for part in enumerate_pair_partitions(k, r)]
        assert list(sampling._all_partitions(k)) == expect


class TestSampleIto:
    def test_single_integral_example(self):
        panel = GaussianPanel(np.array([[[1.5, 0.0, 0.0]]]))
        assert sample_ito(IntegralSpec((0,), (1,), 4.0), 2, panel) == pytest.approx([3.0])

    def test_pair_equal_indicator(self):
        z = 0.7
        panel = GaussianPanel(np.array([[[z]]]))
        got = sample_ito(IntegralSpec((0, 0), (1, 1), 2.0), 0, panel)
        assert got == pytest.approx([(2.0 / 2) * (z * z - 1)])

    def test_pair_distinct_zero_panel(self):
        panel = GaussianPanel(np.zeros((1, 2, 2)))
        assert np.array_equal(sample_ito(IntegralSpec((0, 0), (1, 2), 1.0), 1, panel), [0.0])

    def test_triple_zero_panel(self):
        panel = GaussianPanel(np.zeros((1, 3, 3)))
        assert np.array_equal(sample_ito(IntegralSpec((0, 0, 0), (1, 2, 3), 1.0), 2, panel),
                              [0.0])

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
                panel = make_panel(rng, max(indices), p, paths=1)

                def z(i, j):
                    return float(panel.data[0, i - 1, j])

                got = sample_ito(spec, p, panel)
                expect = transcribers[k](spec, p, z)
                assert got == pytest.approx([expect], rel=1e-10, abs=1e-12)

    def test_weighted_profile_transcription(self):
        rng = np.random.default_rng(77)
        for profile in [(0, 1), (1, 0)]:
            for indices in [(1, 1), (1, 2)]:
                spec = IntegralSpec(profile, indices, 0.44)
                panel = make_panel(rng, 2, 3, paths=1)

                def z(i, j):
                    return float(panel.data[0, i - 1, j])

                assert sample_ito(spec, 3, panel) == pytest.approx(
                    [transcribe_k2(spec, 3, z)], rel=1e-12)

    def test_insufficient_panel(self):
        panel = GaussianPanel(np.zeros((1, 1, 3)))
        with pytest.raises(ValueError):
            sample_ito(IntegralSpec((0, 0, 1), (1, 1, 1), 1.0), 5, panel)
        with pytest.raises(ValueError):
            panel.component(2, 1)

    @pytest.mark.parametrize("h", [0.7, 2.0**-7])
    @pytest.mark.parametrize("p", range(7))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_vanishing_error_is_hermite(self, k, p, h):
        # Kloeden-Platen sec. 5.2: h^(k/2)/k! He_k(zeta_0) on any panel, any cap
        spec = IntegralSpec((0,) * k, (2,) * k, h)
        panel = make_panel(np.random.default_rng(100 * k + p), 2, p, paths=64)
        z0 = panel.data[:, 1, 0]
        expect = h ** (k / 2) / math.factorial(k) * hermite_e.hermeval(z0, [0] * k + [1])
        for pan in (panel, GaussianPanel(panel.data[..., :1])):
            got = sample_ito(spec, p, pan)
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (1,), 1.0)
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (0, 1), 1.0)
        with pytest.raises(ValueError):
            IntegralSpec((0, 0), (1, 1), 0.0)
        with pytest.raises(ValueError, match="nan"):
            IntegralSpec((0, 0), (1, 1), float("nan"))

    def test_fractional_indices_rejected(self):
        with pytest.raises(ValueError, match="Wiener component indices must be integers, got 1.5"):
            IntegralSpec((0, 0), (1.5, 2.7), 1.0)
        assert IntegralSpec((0, 0), (np.int64(1), 2.0), 1.0).wiener_indices == (1, 2)


class TestStratonovich:
    """The Ito sum against the plain (Stratonovich) product sum of the same coefficients."""

    def test_equals_ito_for_distinct(self):
        rng = np.random.default_rng(8)
        panel = make_panel(rng, 2, 6, paths=20)
        spec = IntegralSpec((0, 0), (1, 2), 0.9)
        a = sample_ito(spec, 6, panel)
        b = _plain_product(_coeff_array(spec, 6), [panel.component(i, 6) for i in (1, 2)])
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
            b = _plain_product(_coeff_array(spec, p), [panel.component(1, p)] * 2)
            assert np.allclose(b - a, h / 2, rtol=1e-12)

    def test_multiplicity_six_matches_einsum(self):
        # the only sampler check at k = 6: pairs and a triple of pairs agree
        rng = np.random.default_rng(10)
        panel = make_panel(rng, 2, 1, paths=1)
        spec = IntegralSpec((0,) * 6, (1, 2, 1, 2, 1, 2), 1.0)
        expect = _bracket_terms(spec, 1, panel, _coeff_array(spec, 1))
        assert sample_ito(spec, 1, panel) == pytest.approx(expect, rel=1e-10)


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
        panel64 = make_panel(np.random.default_rng(sum(profile) + 10 * k), 3, p, paths=64)
        tuples = (list(product((1, 2, 3), repeat=k)) if k <= 3
                  else _equality_patterns(k, 3))
        for indices in tuples:
            spec = IntegralSpec(profile, indices, 0.7)
            coeff = _coeff_array(spec, p)
            for panel in (panel64, GaussianPanel(panel64.data[1:2])):
                old = _bracket_terms(spec, p, panel, coeff)
                got = sample_ito(spec, p, panel)
                assert got.shape == old.shape
                assert np.abs(got - old).max() <= 1e-12 * max(1.0, np.abs(old).max()), indices

    @pytest.mark.parametrize("profile", [
        (0,), (1,), (0, 1), (1, 0), (2, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0),
        (1, 0, 0), (0,) * 4, (0, 0, 0, 1), (0,) * 5,
    ])
    def test_cap_zero_matches_einsum(self, profile):
        # cap 0 is evaluated as a product of Hermite polynomials
        k = len(profile)
        panel64 = make_panel(np.random.default_rng(sum(profile) + 10 * k), 3, 0, paths=64)
        for indices in (product((1, 2, 3), repeat=k) if k <= 3 else _equality_patterns(k, 3)):
            spec = IntegralSpec(profile, indices, 0.7)
            coeff = _coeff_array(spec, 0)
            for panel in (panel64, GaussianPanel(panel64.data[1:2])):
                old = _bracket_terms(spec, 0, panel, coeff)
                got = sample_ito(spec, 0, panel)
                assert np.abs(got - old).max() <= 1e-12 * max(1.0, np.abs(old).max()), indices

    @pytest.mark.parametrize("paths", [1, 64])
    def test_step_integrals_match_einsum(self, paths):
        # every integral of a t25 step on m = 3 noise, at the plan's cap
        h = 0.25
        plan = scheme_plan(2.5, h)
        ctx = StepContext.sample("t25", 3, h, np.random.default_rng(12), plan, paths=paths)
        assert len(ctx.values) == 3 * 3 + 3 * 9 + 4 * 27 + 81 + 243
        for (weights, indices), got in ctx.values.items():
            spec = IntegralSpec(weights, indices, h)
            p = plan.cap(weights)
            old = _bracket_terms(spec, p, ctx.panel, _coeff_array(spec, p))
            assert got.shape == old.shape
            assert np.abs(got - old).max() <= 1e-12 * np.abs(old).max(), (weights, indices)


class TestWickBlocks:
    """The Wick sums stream path blocks; the block size changes no value."""

    PROFILES = [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0),
                (1, 0, 0), (0,) * 4, (0, 0, 0, 1), (0,) * 5]
    CAPS = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2}

    def _values(self, data, profile, p):
        # lone calls, then the same tuple read from the stack
        panel = GaussianPanel(data)
        stack = stack_ito(profile, p, 0.7, panel)
        out = []
        for indices in product((1, 2, 3), repeat=len(profile)):
            spec = IntegralSpec(profile, indices, 0.7)
            out.append(sample_ito(spec, p, panel))
            out.append(stack[tuple(i - 1 for i in indices)])
        return np.array(out)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_stack_matches_lone_calls(self, profile):
        # every tuple as a lone call gives it; a zero-error one, which the stack
        # evaluates at cap p and a lone call at cap 0, equal to rounding
        k = len(profile)
        data = make_panel(np.random.default_rng(40 + k), 3, self.CAPS[k], paths=37).data
        for p in (0, self.CAPS[k]):
            got = self._values(data, profile, p).reshape(-1, 2, 37)
            scale = np.abs(got[:, 0]).max()
            assert np.abs(got[:, 1] - got[:, 0]).max() <= 1e-13 * scale, p

    def test_pair_cap_above_tensor_ceiling(self):
        # the (0,0) pair is summed in closed form, so a cap above the degree
        # ceiling of the coefficient tensors (t25 plans 512 at h = 0.125) samples
        h, p = 0.25, 300
        base = scheme_plan(2.5, h)
        plan = TruncationPlan(2.5, h, base.constant, {**dict(base.items()), (0, 0): p})
        ctx = StepContext.sample("t25", 2, h, np.random.default_rng(4), plan, paths=16)
        z = ctx.panel.data
        w = 1.0 / np.sqrt(4.0 * np.arange(1, p + 1) ** 2 - 1.0)
        for a, b in product((0, 1), repeat=2):
            za, zb = z[:, a, : p + 1], z[:, b, : p + 1]
            cross = ((za[:, :-1] * zb[:, 1:] - za[:, 1:] * zb[:, :-1]) * w).sum(axis=1)
            expect = 0.5 * h * (za[:, 0] * zb[:, 0] - (a == b) + cross)
            lone = sample_ito(IntegralSpec((0, 0), (a + 1, b + 1), h), p, GaussianPanel(z))
            for got in (ctx.integral((0, 0), (a + 1, b + 1)), lone):
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), (a, b)

    def test_lone_call_on_wide_panel_is_path_sized(self):
        # the mse command draws m = max(indices) components; one call must not
        # evaluate the other m^k - 1 tuples (8^4 x 2000 doubles would be 65 MB)
        spec = IntegralSpec((0, 0, 0, 0), (1, 3, 5, 8), 0.5)
        sample_ito(spec, 2, make_panel(np.random.default_rng(1), 8, 2, paths=2000))  # warm caches
        panel = make_panel(np.random.default_rng(2), 8, 2, paths=2000)
        tracemalloc.start()
        try:
            value = sample_ito(spec, 2, panel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.shape == (2000,)
        assert peak < 2**20

    @pytest.mark.parametrize("min_rows,elements", [(1, 0), (7, 0), (1, 2**40)],
                             ids=["1-row", "7-rows", "all-paths"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_block_size_changes_no_value(self, profile, min_rows, elements, monkeypatch):
        k = len(profile)
        data = make_panel(np.random.default_rng(30 + k), 3, self.CAPS[k], paths=37).data
        for p in (0, self.CAPS[k]):
            expect = self._values(data, profile, p)
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_MIN_ROWS", min_rows)
                patch.setattr(sampling, "_BLOCK_ELEMENTS", elements)
                got = self._values(data, profile, p)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), p

    def test_step_peak_is_block_sized(self):
        # a t25 step at 20 000 paths keeps ~27 MB; evaluating it may exceed
        # that by a few blocks, not by a multiple of the path count
        plan = scheme_plan(2.5, 0.25)
        StepContext.sample("t25", 2, 0.25, np.random.default_rng(0), plan, paths=64)  # warm caches
        tracemalloc.start()
        try:
            ctx = StepContext.sample("t25", 2, 0.25, np.random.default_rng(1), plan, paths=20_000)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.panel.data.shape == (20_000, 2, 33)
        assert peak - current < 2 * 2**20


class TestStatelessSamplers:
    """A sampler's value depends on its arguments alone, not on what ran before."""

    def test_stack_leaves_lone_calls_unchanged(self):
        panel = make_panel(np.random.default_rng(21), 2, 4, paths=25)
        profiles = [(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (0,) * 4]
        specs = [IntegralSpec(w, indices, 0.25)
                 for w in profiles for indices in product((1, 2), repeat=len(w))]
        before = [sample_ito(spec, 3, panel) for spec in specs]
        for w in profiles:
            stack_ito(w, 3, 0.25, panel)
        for spec, value in zip(specs, before):
            assert np.array_equal(sample_ito(spec, 3, panel), value), spec

    def test_zero_error_call_ignores_the_table_a_stack_grew(self):
        # a stack at cap 0 extends the panel's Hermite table past what a lone
        # call asked for; the lone calls read the same floats as on a fresh panel
        panel = make_panel(np.random.default_rng(22), 2, 3, paths=25)
        specs = [IntegralSpec((0,) * k, (i,) * k, 0.25) for k, i in ((2, 2), (3, 1), (1, 2))]
        first = sample_ito(specs[0], 3, panel)
        stack_ito((0,) * 4, 0, 0.25, panel)
        assert len(panel.hermite(0)) == 5
        for spec, got in zip(specs, [first] + [sample_ito(s, 3, panel) for s in specs[1:]]):
            fresh = sample_ito(spec, 3, GaussianPanel(panel.data))
            assert got.tobytes() == fresh.tobytes(), spec

    @pytest.mark.parametrize("scheme,m,h", [
        ("t25", 2, 0.25), ("t25", 3, 0.25), ("t15", 1, 2.0**-7), ("t20", 2, 0.25),
        ("milstein", 2, 0.25),
    ])
    def test_step_reads_stacks_and_exact_integrals(self, scheme, m, h):
        # each value is its tuple's entry of the (profile, cap) stack or, when
        # the error vanishes, the lone cap-0 evaluation, bit for bit
        ctx = StepContext.sample(scheme, m, h, np.random.default_rng(3), paths=16)
        stacks = {}
        for (weights, indices), got in ctx.values.items():
            spec = IntegralSpec(weights, indices, h)
            if IndexPattern.from_indices(indices).error_vanishes(spec.profile):
                expect = sample_ito(spec, 0, ctx.panel)
            else:
                if weights not in stacks:
                    stacks[weights] = stack_ito(weights, ctx.plan.cap(weights), h, ctx.panel)
                expect = stacks[weights][tuple(i - 1 for i in indices)]
            assert np.array_equal(got, expect), (weights, indices)


def _literal_hermite(x: float, k: int) -> List[float]:
    """He_0(x)..He_k(x) by the three-term recurrence, one Python float at a time."""
    he = [1.0]
    for j in range(k):
        he.append(x * he[j] - j * (he[j - 1] if j else 1.0))
    return he


class TestHermiteTable:
    """The panel's He_j(zeta_0) table, which every cap-0 Ito sum reads."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("paths", [1, 37])
    def test_rows_are_the_literal_recurrence(self, m, paths):
        panel = make_panel(np.random.default_rng(m * 100 + paths), m, 2, paths)
        table = panel.hermite(6)
        assert table.shape == (7, paths, m)
        expect = [[_literal_hermite(float(x), 6) for x in row] for row in panel.data[..., 0]]
        assert table.tobytes() == np.array(expect).transpose(2, 0, 1).tobytes()

    def test_extension_gives_the_same_bytes(self):
        data = make_panel(np.random.default_rng(9), 3, 1, paths=37).data
        grown, direct = GaussianPanel(data), GaussianPanel(data)
        assert len(grown.hermite(2)) == 3
        assert grown.hermite(5).tobytes() == direct.hermite(5).tobytes()

    def test_second_call_returns_the_same_read_only_array(self):
        panel = make_panel(np.random.default_rng(10), 2, 1, paths=5)
        table = panel.hermite(4)
        assert panel.hermite(4) is table and panel.hermite(1) is table
        with pytest.raises(ValueError):
            table[1, 0, 0] = 0.0

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("h", [0.7, 2.0**-7])
    @pytest.mark.parametrize("p", [0, 5])
    def test_zero_error_call_is_c0_times_he_k(self, k, h, p):
        # c0 = h^(k/2)/k! (Kloeden and Platen 1992, 5.2), rounded as the tensor stores it
        panel = make_panel(np.random.default_rng(k), 3, 0, paths=37)
        c0 = 1 / math.factorial(k) * h ** (k / 2)
        for i in (1, 2, 3):
            got = sample_ito(IntegralSpec((0,) * k, (i,) * k, h), p, panel)
            expect = [c0 * _literal_hermite(float(x), k)[k] for x in panel.data[:, i - 1, 0]]
            assert got.tobytes() == np.array(expect).tobytes(), i

    @pytest.mark.parametrize("scheme,m,h,top", [
        ("t25", 2, 0.25, 5), ("t25", 1, 0.25, 5), ("t20", 2, 0.25, 4), ("t15", 1, 2.0**-7, 3),
        ("milstein", 2, 0.25, 2),
    ])
    def test_one_step_builds_the_table_once(self, monkeypatch, scheme, m, h, top):
        # the step asks for its largest cap-0 multiplicity before any integral, so no
        # cap-0 call grows the table by a copy; each zero-error value is the bytes of a
        # lone call on a fresh panel, whose table reaches only that call's k
        grown, hermite = [], GaussianPanel.hermite

        def spy(panel, k):
            rows = len(panel._he)
            table = hermite(panel, k)
            if len(table) != rows:
                grown.append((rows, len(table)))
            return table

        monkeypatch.setattr(GaussianPanel, "hermite", spy)
        ctx = StepContext.sample(scheme, m, h, np.random.default_rng(3), paths=16)
        assert grown == [(1, top + 1)]
        for key, value in ctx.values.items():
            spec = IntegralSpec(*key, h)
            if IndexPattern.from_indices(spec.wiener_indices).error_vanishes(spec.profile):
                fresh = GaussianPanel(ctx.panel.data)
                assert sample_ito(spec, 0, fresh).tobytes() == value.tobytes(), key


class TestLoneCall:
    @pytest.mark.parametrize("indices,arities", [((1, 2, 3), [3]), ((1, 2, 1), [3, 1])])
    def test_contracts_only_pairs_that_agree(self, indices, arities, monkeypatch):
        # a pair of differing components adds nothing, and the blocks are
        # charged by the one component per axis the call gathers (a stack's
        # charge would cut these 10 000 paths into 79 blocks of 128)
        panel = make_panel(np.random.default_rng(5), 3, 5, paths=10_000)
        calls = []
        contract = sampling._contract

        def counting(coeff, zs):
            calls.append(len(zs))
            return contract(coeff, zs)

        monkeypatch.setattr(sampling, "_contract", counting)
        sample_ito(IntegralSpec((0, 0, 0), indices, 1.0), 5, panel)
        assert calls == arities * 55


class TestNegativeCap:
    # a warm tensor cache must not turn a negative cap into a silent zero
    @pytest.fixture(params=["cold", "warm"])
    def cache(self, request, monkeypatch):
        monkeypatch.setattr(coefficients, "_tensor_cache", {})
        if request.param == "warm":
            get_tensor((0, 0, 0), 2)
            get_tensor((0, 0), 2)

    @pytest.mark.parametrize("sampler", [sample_ito])
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
        inc = wiener_increments(rng, 2, 64, 0.5, paths=1)
        val = discretization_oracle(IntegralSpec((0, 0), (1, 2), 0.5), inc)
        assert val.shape == (1,)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            discretization_oracle(IntegralSpec((0,), (1,), 1.0), np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            discretization_oracle(IntegralSpec((0, 0), (1, 2), 1.0), np.zeros((1, 1, 8)))

    # distinct, all-equal and non-adjacent repeated components over m = 3
    CASES = [
        ((0,), (1,)), ((0,), (3,)), ((1,), (2,)),
        ((0, 0), (1, 2)), ((0, 0), (2, 2)), ((1, 0), (1, 1)), ((1, 0), (2, 1)),
        ((0, 2), (1, 1)), ((0, 2), (3, 2)),
        ((2, 1, 0), (1, 2, 3)), ((2, 1, 0), (1, 2, 1)), ((2, 1, 0), (2, 2, 2)),
        ((0,) * 4, (1, 2, 1, 2)), ((0,) * 4, (1, 2, 3, 1)), ((0,) * 4, (3, 3, 3, 3)),
        ((0,) * 5, (1, 1, 2, 2, 3)), ((0,) * 5, (1, 2, 3, 2, 1)), ((0,) * 5, (2,) * 5),
    ]

    # N = 2048 blocks 16 paths, so 15, 16, 17 and 37 paths give fewer paths
    # than a block, one full block and partial last blocks; N above 2**15
    # streams one path at a time
    @pytest.mark.parametrize("N,paths", [
        (N, paths) for N in (2, 3, 2048) for paths in (1, 15, 16, 17, 37)
    ] + [(2**15 + 3, 1), (2**15 + 3, 3)])
    def test_equals_whole_array_oracle(self, N, paths):
        rng = np.random.default_rng(N + paths)
        inc = wiener_increments(rng, 3, N, 0.7, paths=paths)
        for profile, indices in self.CASES:
            spec = IntegralSpec(profile, indices, 0.7)
            got = discretization_oracle(spec, inc)
            assert got.shape == (paths,)
            assert np.array_equal(got, _whole_array_oracle(spec, inc)), (profile, indices)

    def test_traced_peak_is_block_sized(self):
        # the increments alone are 49 MB; the oracle's own allocations must
        # not scale with the path count
        inc = wiener_increments(np.random.default_rng(16), 3, 2048, 1.0, paths=1000)
        spec = IntegralSpec((2, 1, 0), (1, 2, 3), 1.0)
        tracemalloc.start()
        try:
            discretization_oracle(spec, inc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("profile,indices,pattern", [
        ((0, 0), (1, 2), IndexPattern.distinct(2)),
        ((1, 0), (1, 2), IndexPattern.distinct(2)),
        ((0, 0, 0), (1, 2, 3), IndexPattern.distinct(3)),
    ])
    def test_mse_matches_exact_error(self, profile, indices, pattern):
        rng = np.random.default_rng(hash((profile, indices)) & 0xFFFF)
        paths, N = 30000, 512
        spec = IntegralSpec(profile, indices, 1.0)
        results = oracle_mse([spec], (0, 5), rng, paths, N)
        for p in (0, 5):
            emp, se = results[spec, p]
            exact = exact_error(WeightProfile(profile), pattern, p, 1.0).value
            allowance = len(profile) ** 2 / N
            assert abs(emp - exact) <= 4 * se + allowance


def _phi_table(p, N, T):
    return np.array([[eval_phi(j, s, 0.0, T) for s in np.arange(N) * (T / N)]
                     for j in range(p + 1)])


class TestOracleMse:
    SPECS = [IntegralSpec((0, 0), (1, 2), 0.8), IntegralSpec((1, 0), (2, 1), 0.8)]
    CAPS = (0, 2, 5)

    @staticmethod
    def _whole_chunk_mse(specs, caps, rng, paths, grid):
        T, chunk = specs[0].T_minus_t, sampling._CHUNK_PATHS
        sums, sqsums = {}, {}
        for done in range(0, paths, chunk):
            n = min(chunk, paths - done)
            inc = rng.standard_normal((n, 2, grid)) * math.sqrt(T / grid)
            panel = GaussianPanel(np.einsum("jn,pin->pij", _phi_table(max(caps), grid, T), inc))
            for spec in specs:
                oracle = discretization_oracle(spec, inc)
                for p in caps:
                    d = (oracle - sample_ito(spec, p, panel)) ** 2
                    sums[spec, p] = sums.get((spec, p), 0.0) + float(d.sum())
                    sqsums[spec, p] = sqsums.get((spec, p), 0.0) + float((d * d).sum())
        means = {key: s / paths for key, s in sums.items()}
        return {key: (mean, math.sqrt(max(sqsums[key] / paths - mean**2, 0.0) / paths))
                for key, mean in means.items()}

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
    def test_equals_whole_chunk_loop(self, bit_generator):
        # m = 2 at grid 64 streams 16384-path blocks: chunks of 20000 and 5000
        # paths, the first ending inside its second block
        got, expect = (run(self.SPECS, self.CAPS, np.random.Generator(bit_generator(17)),
                           25_000, 64)
                       for run in (oracle_mse, self._whole_chunk_mse))
        assert len(got) == 6
        assert got == expect

    def test_traced_peak_is_block_sized(self):
        # a chunk of 4000 paths at m = 3 and grid 2048 is 196 MB of increments;
        # the validator holds one 16 MB block of them
        spec = IntegralSpec((0, 0, 0), (1, 2, 3), 1.0)
        oracle_mse([spec], (0, 2), np.random.default_rng(1), 2, 2048)  # warm caches
        tracemalloc.start()
        try:
            oracle_mse([spec], (0, 2), np.random.default_rng(2), 4000, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("paths", [1, 0, -3])
    def test_rejects_fewer_than_two_paths(self, paths):
        with pytest.raises(ValueError, match=f"paths must be at least 2, got {paths}"):
            oracle_mse(self.SPECS, self.CAPS, np.random.default_rng(0), paths, 16)

    def test_rejects_empty_specs_or_caps(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="specs must not be empty"):
            oracle_mse([], [0], rng, 10, 64)
        with pytest.raises(ValueError, match="caps must not be empty"):
            oracle_mse(self.SPECS, [], rng, 10, 64)

    def test_rejects_a_spec_of_another_step(self):
        specs = self.SPECS + [IntegralSpec((0, 0), (1, 2), 1.0)]
        with pytest.raises(ValueError, match="every spec must span one step"):
            oracle_mse(specs, self.CAPS, np.random.default_rng(0), 4, 16)

    @pytest.mark.parametrize("p,N,T", [(0, 2, 1.0), (5, 2048, 1.0), (9, 37, 0.3)])
    def test_cached_basis_is_the_eval_phi_table(self, p, N, T):
        assert np.array_equal(sampling._basis(p, N, T), _phi_table(p, N, T))


class TestIncrementValidation:
    SHAPE = r"increments must be \(paths, m, N\)"

    @pytest.mark.parametrize("shape", [(8,), (1, 2, 2, 8), (1, 8)])
    def test_oracle_rejects_shape(self, shape):
        with pytest.raises(ValueError, match=self.SHAPE):
            discretization_oracle(IntegralSpec((0,), (1,), 1.0), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(8,), (1, 2, 2, 8), (1, 8)])
    def test_zetas_reject_shape(self, shape):
        with pytest.raises(ValueError, match=self.SHAPE):
            zetas_from_increments(np.zeros(shape), 2, 1.0)

    @pytest.mark.parametrize("N", [0, 1])
    def test_zetas_reject_short_grid(self, N):
        with pytest.raises(ValueError, match=f"need at least a 2-point grid, got N={N}"):
            zetas_from_increments(np.zeros((3, 1, N)), 2, 1.0)

    @pytest.mark.parametrize("step", [float("nan"), 0.0, -1.0])
    def test_zetas_reject_step(self, step):
        with pytest.raises(ValueError, match="T_minus_t must be positive and finite"):
            zetas_from_increments(np.zeros((3, 1, 8)), 2, step)

    @pytest.mark.parametrize("step", [-1.0, float("nan"), float("inf")])
    def test_increments_reject_step(self, step):
        with pytest.raises(ValueError, match="T_minus_t must be positive and finite"):
            wiener_increments(np.random.default_rng(0), 1, 8, step, paths=2)

    def test_increments_reject_components(self):
        with pytest.raises(ValueError, match="got m=0"):
            wiener_increments(np.random.default_rng(0), 0, 8, 1.0, paths=2)

    @pytest.mark.parametrize("paths", [0, -1])
    def test_increments_reject_paths(self, paths):
        with pytest.raises(ValueError, match=f"got paths={paths}"):
            wiener_increments(np.random.default_rng(0), 1, 8, 1.0, paths=paths)


class TestPanelValidation:
    @pytest.mark.parametrize("m, p_max, paths, message", [
        (2, 3, 0, "need at least one path, got paths=0"),
        (2, 3, -1, "need at least one path, got paths=-1"),
        (0, 3, 2, "need at least one Wiener component, got m=0"),
        (2, -1, 2, "need a non-negative degree cap, got p_max=-1"),
    ])
    def test_make_panel_rejects(self, m, p_max, paths, message):
        with pytest.raises(ValueError, match=message):
            make_panel(np.random.default_rng(0), m, p_max, paths=paths)

    @pytest.mark.parametrize("shape", [(0, 2, 4), (3, 0, 4), (3, 2, 0)])
    def test_panel_rejects_empty_axis(self, shape):
        with pytest.raises(ValueError, match="none empty"):
            GaussianPanel(np.zeros(shape))

    def test_step_rejects_no_components(self):
        with pytest.raises(ValueError, match="got m=0"):
            StepContext.sample("t15", 0, 0.25, np.random.default_rng(0), paths=2)


# every published equality pattern of k = 2..5, with each weight profile of k = 2, 3
_PUBLISHED = [case for k, letters in ((2, "abc"), (3, "abcd"), (4, " "), (5, " "))
              for letter in letters for case in case_catalog(k, letter.strip())]


def _hermite_panel(counts, p):
    """Tensor Gauss-Hermite rule as a panel of components 1..len(counts) and its
    probability weights: ``c + 1`` nodes for each zeta of a component occurring
    ``c`` times, exact for every polynomial of degree <= 2c + 1 in it."""
    rules = [hermite_e.hermegauss(c + 1) for c in counts for _ in range(p + 1)]
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    weights = functools.reduce(np.multiply.outer, (w / math.sqrt(2 * math.pi) for _, w in rules))
    data = np.stack([g.ravel() for g in grids], axis=1).reshape(-1, len(counts), p + 1)
    return GaussianPanel(data), weights.ravel()


class TestGaussHermiteMoments:
    """The cap-p Ito approximation is a polynomial of degree c in each zeta of a
    component occurring c times, so the rule integrates its square exactly: its
    mean is 0 and its second moment is the kernel norm minus the truncation error."""

    NODES = 5000

    @pytest.mark.parametrize("label, profile, pattern", _PUBLISHED,
                             ids=[case[0] for case in _PUBLISHED])
    def test_mean_and_second_moment(self, label, profile, pattern):
        counts = [len(b) for b in pattern.blocks]
        per_degree = math.prod(c + 1 for c in counts)
        p = max(q for q in range(7) if per_degree ** (q + 1) <= self.NODES)
        indices = [0] * pattern.k
        for comp, block in enumerate(pattern.blocks, start=1):
            for pos in block:
                indices[pos - 1] = comp
        panel, weights = _hermite_panel(counts, p)
        vals = sample_ito(IntegralSpec(profile, indices, 1.0), p, panel)
        target = float(exact_norm(profile)) - normalized_error(profile, pattern, p)
        second = math.fsum((weights * vals * vals).tolist())
        assert abs(math.fsum((weights * vals).tolist())) <= 1e-12 * math.sqrt(target)
        assert second == pytest.approx(target, rel=1e-12, abs=0)


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
        # sampler's variance is checked against the deficient target).  The
        # paths are drawn a block at a time from one stream, whose blocks join
        # into the one-shot draw
        whole = make_panel(np.random.default_rng(15), 2, 50, paths=8).data
        rng = np.random.default_rng(15)
        parts = [make_panel(rng, 2, 50, paths=n).data for n in (3, 5)]
        assert np.array_equal(np.concatenate(parts), whole)
        rng = np.random.default_rng(15)
        paths, block = 1_000_000, 2**14
        spec = IntegralSpec((0, 0), (1, 2), 1.0)
        sums = np.zeros(3)  # sums of v, v^2 and v^4
        for start in range(0, paths, block):
            panel = make_panel(rng, 2, 50, paths=min(block, paths - start))
            vals = sample_ito(spec, 50, panel)
            sums += [vals.sum(), (vals**2).sum(), (vals**4).sum()]
        m1, m2, m4 = sums / paths
        target = 0.5 - 1.0 / 404.0
        var = m2 - m1**2
        se = math.sqrt((m4 - m2**2) / paths)
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
        for shape in [(4,), (2, 3)]:  # a single draw is a one-path panel
            with pytest.raises(ValueError, match=r"panel must be \(paths, m, p\+1\)"):
                GaussianPanel(np.zeros(shape))

    def test_data_is_read_only(self):
        # the panel keeps its own copy: later writes to the caller's array, or
        # to the panel, cannot change what it samples
        drawn = np.random.default_rng(5).standard_normal((6, 2, 3))
        panel = GaussianPanel(drawn)
        spec = IntegralSpec((0, 1), (1, 2), 0.5)
        before = sample_ito(spec, 2, panel)
        drawn[...] = 0.0
        with pytest.raises(ValueError):
            panel.data[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            panel.data = np.zeros((6, 2, 3))
        assert np.array_equal(sample_ito(spec, 2, panel), before)
