"""Exact Fourier-Legendre coefficients of iterated-integral kernels.

The kernel of a multiplicity-k iterated integral with monomial time weights
``(t - tau)^{l_m}`` lives on the ordered simplex of ``[t, T]^k``.  Its Fourier
coefficient against a product of shifted orthonormal Legendre polynomials
factors into an exact rational "reduced" coefficient (an iterated polynomial
integral over the simplex of ``[-1, 1]^k``) times a closed-form scaling in
``T - t`` and the degrees.  After the change of variable u = (1 + x) / 2 the
integration runs in Python integers over one tracked denominator; no
quadrature is involved.

Sign convention: the reduced coefficient absorbs ``(-1)**sum(l)`` so that the
weighted k = 2, 3 coefficient tables carry their leading minus signs
verbatim.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

import numpy as np

from .legendre import shifted_legendre

__all__ = [
    "WeightProfile",
    "CoeffTensor",
    "ExactNorm",
    "bar_coefficient",
    "scaled_coefficient",
    "check_step",
    "exact_norm",
    "build_tensor",
    "parseval_defect",
    "squared_sum",
    "get_tensor",
    "clear_caches",
]

MAX_MULTIPLICITY = 6
DEFAULT_ENTRY_CEILING = 10**8


class WeightProfile(tuple):
    """Weight exponents (l_1 .. l_k) of one iterated integral, 1 <= k <= 6."""

    def __new__(cls, exponents):
        exps = tuple(int(l) for l in exponents)
        if not 1 <= len(exps) <= MAX_MULTIPLICITY:
            raise ValueError(f"multiplicity must be 1..{MAX_MULTIPLICITY}, got {len(exps)}")
        if any(l < 0 for l in exps):
            raise ValueError("weight exponents must be non-negative")
        return super().__new__(cls, exps)

    @property
    def k(self) -> int:
        return len(self)

    @property
    def total_weight(self) -> int:
        return sum(self)

    def label(self) -> str:
        return "".join(str(l) for l in self)


def _profile(profile) -> WeightProfile:
    return profile if isinstance(profile, WeightProfile) else WeightProfile(profile)


# ---------------------------------------------------------------------------
# reduced coefficients, integrated in u = (1 + x) / 2 over the [0, 1] simplex
# ---------------------------------------------------------------------------

# F_m(u) = int_0^u P~_{j_m}(s) s^{l_m} F_{m-1}(s) ds with F_0 = 1, as integer
# numerators of u^0, u^1, ... over one denominator, keyed by the
# ((l_1, j_1), ..., (l_m, j_m)) prefix (all but the outermost variable);
# shared across tensors and profiles
_prefix_cache: Dict[tuple, tuple] = {}
# finished reduced coefficients, keyed by (profile, j-tuple)
_bar_cache: Dict[tuple, Fraction] = {}
_cache_lock = threading.Lock()


def _prefix_poly(steps: tuple) -> tuple:
    """Running simplex integral after the first ``len(steps)`` factors.

    ``steps`` is a tuple of (l, j) pairs, innermost variable first.  Returns
    ``(nums, den)``, meaning ``sum_i nums[i] u^i / den`` in lowest terms.
    """
    if not steps:
        return (1,), 1
    cached = _prefix_cache.get(steps)
    if cached is not None:
        return cached
    inner, den = _prefix_poly(steps[:-1])
    l, j = steps[-1]
    prod = [0] * (len(inner) + j)
    for a, ca in enumerate(shifted_legendre(j)):
        for b, cb in enumerate(inner):
            if cb:
                prod[a + b] += ca * cb
    # the integrand's u^i term is prod[i - l]; it integrates to u^(i+1)/(i+1)
    scale = math.lcm(*range(l + 1, l + len(prod) + 1))
    nums = [0] * (l + 1) + [c * (scale // (i + l + 1)) for i, c in enumerate(prod)]
    den *= scale
    g = math.gcd(den, *nums)
    result = tuple(c // g for c in nums), den // g
    with _cache_lock:
        _prefix_cache.setdefault(steps, result)
    return result


def _moment_dot(nums: tuple, l: int, j: int) -> tuple:
    """``sum_i nums[i] * int_0^1 u^(i+l) P~_j(u) du`` as (numerator, denominator).

    The moment of u^n is ``n!^2 / ((n-j)! (n+j+1)!)`` for n >= j and zero
    below (orthogonality); consecutive moments differ by the factor
    ``(n+1)^2 / ((n+1-j) (n+j+2))``, so Horner's rule sums from the top.
    """
    lo, hi = max(j, l), len(nums) - 1 + l
    if hi < lo:
        return 0, 1
    num, den = nums[hi - l], 1
    for n in range(hi - 1, lo - 1, -1):
        q = (n + 1 - j) * (n + j + 2)
        num = nums[n - l] * den * q + (n + 1) ** 2 * num
        den *= q
    f = math.factorial(lo)
    return num * f * f, den * math.factorial(lo - j) * math.factorial(lo + j + 1)


def bar_coefficient(profile, j) -> Fraction:
    """Exact reduced Fourier-Legendre coefficient for multi-index ``j``.

    Computes ``(-1)**sum(l)`` times the iterated integral over the ordered
    simplex ``-1 <= x_1 <= ... <= x_k <= 1`` of
    ``prod_m P_{j_m}(x_m) (1 + x_m)^{l_m}``, with ``j_1`` innermost.  With
    x = 2u - 1 that is ``(-1)**L 2**(k+L)`` times the same integral of
    ``prod_m P~_{j_m}(u_m) u_m^{l_m}`` over ``0 <= u_1 <= ... <= u_k <= 1``.
    Inner variables are integrated in integers; the outermost integral is a
    dot product against closed-form moments.
    """
    profile = _profile(profile)
    j = tuple(int(v) for v in j)
    if len(j) != profile.k:
        raise ValueError(f"multi-index length {len(j)} != multiplicity {profile.k}")
    if any(v < 0 for v in j):
        raise ValueError("multi-index entries must be non-negative")
    key = (profile, j)
    cached = _bar_cache.get(key)
    if cached is not None:
        return cached
    nums, den = _prefix_poly(tuple(zip(profile[:-1], j[:-1])))
    num, mden = _moment_dot(nums, profile[-1], j[-1])
    k, L = profile.k, profile.total_weight
    value = Fraction((-1) ** L * 2 ** (k + L) * num, den * mden)
    with _cache_lock:
        _bar_cache.setdefault(key, value)
    return value


def check_step(T_minus_t) -> None:
    """Reject a step length ``T - t`` that is not a positive finite number."""
    if not (math.isfinite(T_minus_t) and T_minus_t > 0):
        raise ValueError(f"T_minus_t must be positive and finite, got {T_minus_t!r}")


def scaled_coefficient(profile, j, T_minus_t: float) -> float:
    """Real Fourier coefficient of the Gaussian product expansion.

    ``C = prod_m sqrt(2 j_m + 1) * (T-t)^(k/2 + sum l) * 2^-(k + sum l) * barC``.
    """
    profile = _profile(profile)
    check_step(T_minus_t)
    bar = bar_coefficient(profile, j)
    scale = 1.0
    for jm in j:
        scale *= math.sqrt(2 * jm + 1)
    k, L = profile.k, profile.total_weight
    return scale * T_minus_t ** (k / 2 + L) * 2.0 ** -(k + L) * float(bar)


def _normalized_rational_sq(profile: WeightProfile, j, bar) -> Fraction:
    """Exact square of the scaled coefficient at T - t = 1 (rational)."""
    prod = 1
    for jm in j:
        prod *= 2 * jm + 1
    k, L = profile.k, profile.total_weight
    return Fraction(prod, 4 ** (k + L)) * bar * bar


@dataclass(frozen=True)
class ExactNorm:
    """Exact L2 norm prefactor: ``I_k = value * (T-t)^(k + 2 sum l)``."""

    profile: WeightProfile
    value: Fraction

    @property
    def exponent(self) -> int:
        return self.profile.k + 2 * self.profile.total_weight

    def at(self, T_minus_t: float) -> float:
        return float(self.value) * T_minus_t ** self.exponent


_norm_cache: Dict[WeightProfile, ExactNorm] = {}


def exact_norm(profile) -> ExactNorm:
    """Exact squared L2 norm of the iterated-integral kernel.

    At T - t = 1 the kernel is ``prod_m (-u_m)^(l_m)`` on the ordered
    simplex of [0, 1]^k (u_m the offset from t), so the iterated integral of
    its square is ``1 / prod_m s_m`` with ``s_m = sum_{i <= m} (2 l_i + 1)``.
    """
    profile = _profile(profile)
    norm = _norm_cache.get(profile)
    if norm is not None:
        return norm
    den, s = 1, 0
    for l in profile:
        s += 2 * l + 1
        den *= s
    value = Fraction(1, den)
    norm = ExactNorm(profile, value)
    _norm_cache[profile] = norm
    return norm


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _box(p: int, k: int) -> Iterator[Tuple[int, ...]]:
    idx = [0] * k
    while True:
        yield tuple(idx)
        m = k - 1
        while m >= 0 and idx[m] == p:
            idx[m] = 0
            m -= 1
        if m < 0:
            return
        idx[m] += 1


class CoeffTensor:
    """All reduced coefficients of one profile over the box {0..p}^k.

    Immutable after construction.  ``values`` maps each multi-index tuple
    (j_1 .. j_k, innermost first) to the exact rational reduced coefficient.
    """

    def __init__(self, profile: WeightProfile, p: int, values: Dict[tuple, Fraction]):
        self.profile = _profile(profile)
        self.p = int(p)
        self.values = values
        self._scaled: np.ndarray | None = None
        self._sq_sums: list | None = None
        self._sq_sums_float: list | None = None

    def __getitem__(self, j):
        return self.values[tuple(j)]

    def __len__(self):
        return len(self.values)

    def scaled_array(self) -> np.ndarray:
        """Dense float array of unit-interval scaled coefficients.

        Entry ``j`` is ``prod sqrt(2 j_m + 1) * 2^-(k + sum l) * barC_j``,
        i.e. the Fourier coefficient at T - t = 1 with the ``(T-t)`` power
        stripped; shape ``(p+1,) * k``.
        """
        if self._scaled is None:
            k, L = self.profile.k, self.profile.total_weight
            arr = np.empty((self.p + 1,) * k, dtype=np.float64)
            for j, bar in self.values.items():
                arr[j] = float(bar)
            root = np.sqrt(2.0 * np.arange(self.p + 1) + 1.0)
            for axis in range(k):
                shape = [1] * k
                shape[axis] = self.p + 1
                arr *= root.reshape(shape)
            arr *= 2.0 ** -(k + L)
            self._scaled = arr
        return self._scaled

    def squared_sum_exact(self, p: int):
        """Exact rational Parseval sum over the sub-box {0..p}^k at T-t = 1."""
        if p > self.p:
            raise ValueError(f"requested p={p} exceeds tensor cap {self.p}")
        if self._sq_sums is None:
            by_level = [Fraction(0)] * (self.p + 1)
            for j, bar in self.values.items():
                by_level[max(j)] += _normalized_rational_sq(self.profile, j, bar)
            acc = Fraction(0)
            partial = []
            for level_sum in by_level:
                acc = acc + level_sum
                partial.append(acc)
            self._sq_sums = partial
        return self._sq_sums[p]

    def squared_sum_float(self, p: int) -> float:
        """Parseval sum over the sub-box {0..p}^k at T-t = 1, in float64."""
        if p > self.p:
            raise ValueError(f"requested p={p} exceeds tensor cap {self.p}")
        if self._sq_sums_float is None:
            sq = self.scaled_array() ** 2
            k = self.profile.k
            self._sq_sums_float = [
                float(sq[(slice(0, q + 1),) * k].sum()) for q in range(self.p + 1)
            ]
        return self._sq_sums_float[p]


def build_tensor(profile, p: int, entry_ceiling: int = DEFAULT_ENTRY_CEILING) -> CoeffTensor:
    """Compute every reduced coefficient over the box {0..p}^k.

    Deterministic; entries already known from previous builds are reused.
    Raises ``ValueError`` when the box would exceed ``entry_ceiling`` entries.
    """
    profile = _profile(profile)
    if p < 0:
        raise ValueError("cap p must be non-negative")
    n_entries = (p + 1) ** profile.k
    if n_entries > entry_ceiling:
        raise ValueError(
            f"box {(p + 1)}^{profile.k} = {n_entries} entries exceeds ceiling {entry_ceiling}"
        )
    values = {j: bar_coefficient(profile, j) for j in _box(p, profile.k)}
    return CoeffTensor(profile, p, values)


def squared_sum(profile, p: int, T_minus_t: float = 1.0) -> float:
    """Parseval sum of squared scaled coefficients over {0..p}^k."""
    profile = _profile(profile)
    t = get_tensor(profile, p)
    exponent = profile.k + 2 * profile.total_weight
    return float(t.squared_sum_exact(p)) * T_minus_t**exponent


def parseval_defect(profile, p: int):
    """Exact rational defect ``I_k - sum C^2`` at T - t = 1."""
    profile = _profile(profile)
    t = get_tensor(profile, p)
    return exact_norm(profile).value - t.squared_sum_exact(p)


# largest tensor built so far per profile, reused by planner and errors
_tensor_cache: Dict[WeightProfile, CoeffTensor] = {}
_tensor_lock = threading.Lock()


def get_tensor(profile, p: int) -> CoeffTensor:
    """Shared tensor cache: returns a tensor with cap >= p for ``profile``."""
    profile = _profile(profile)
    with _tensor_lock:
        cached = _tensor_cache.get(profile)
    if cached is not None and cached.p >= p:
        return cached
    tensor = build_tensor(profile, p)
    with _tensor_lock:
        prev = _tensor_cache.get(profile)
        if prev is None or prev.p < tensor.p:
            _tensor_cache[profile] = tensor
        else:
            tensor = prev
    return tensor


def clear_caches() -> None:
    """Drop all memoized polynomials, coefficients, tensors, and errors."""
    from .errors import _norm_err_cache  # errors imports this module

    with _cache_lock:
        _prefix_cache.clear()
        _bar_cache.clear()
    with _tensor_lock:
        _tensor_cache.clear()
    _norm_cache.clear()
    _norm_err_cache.clear()
