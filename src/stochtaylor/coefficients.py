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
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Dict

import numpy as np

from .legendre import MAX_DEGREE, shifted_legendre

__all__ = [
    "WeightProfile",
    "CoeffTensor",
    "bar_coefficient",
    "scaled_coefficient",
    "check_step",
    "check_cap",
    "as_int",
    "accurate_sum",
    "exact_norm",
    "build_tensor",
    "parseval_defect",
    "get_tensor",
    "clear_caches",
]

MAX_MULTIPLICITY = 6
ENTRY_CEILING = 10**8


class WeightProfile(tuple):
    """Weight exponents (l_1 .. l_k) of one iterated integral, 1 <= k <= 6."""

    def __new__(cls, exponents):
        exps = tuple(as_int(l, "weight exponents") for l in exponents)
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

    @property
    def norm_exponent(self) -> int:
        """Power of ``T - t`` in the kernel's squared norm, ``k + 2 sum l``."""
        return self.k + 2 * self.total_weight

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


# (E_j, col) per degree j: E_j * int_0^1 u^n P~_j(u) du for n = 0, 1, ... in
# integers, extended on demand; shared across tensors and profiles
_column_cache: Dict[int, tuple] = {}


def _column(j: int, depth: int) -> tuple:
    """``(E, col)`` with ``col[n] / E = n!^2 / ((n-j)! (n+j+1)!)``, the moment of
    u^n against P~_j, for n <= depth (zero below j, by orthogonality); E is the
    least common denominator, so an extension rescales old entries by an integer."""
    E, col = _column_cache.get(j, (1, [0] * j))
    if len(col) <= depth:
        ab = [(math.comb(n, j), (j + 1) * math.comb(n + j + 1, j + 1))
              for n in range(len(col), depth + 1)]
        new_E = math.lcm(E, *(b // math.gcd(a, b) for a, b in ab))
        E, col = new_E, [c * (new_E // E) for c in col] + [a * new_E // b for a, b in ab]
        with _cache_lock:
            _column_cache[j] = E, col
    return E, col


def _fiber(profile: WeightProfile, prefix: tuple, last) -> list:
    """Reduced coefficients of ``prefix + (x,)`` for each x in ``last`` as integer
    ``(numerator, denominator)`` pairs: one integer dot product each of the outermost
    integrand u^l F (F the prefix polynomial) against the moment column of x, and
    ``(0, 1)`` by orthogonality when x exceeds the integrand's degree."""
    nums, den = _prefix_poly(tuple(zip(profile, prefix)))
    nums = (0,) * profile[-1] + nums
    sign_scale = (-1) ** profile.total_weight * 2 ** (profile.k + profile.total_weight)
    cols = [_column(x, len(nums) - 1) if x < len(nums) else (1, ()) for x in last]
    return [(sign_scale * sum(map(mul, nums, col)), den * E) if col else (0, 1) for E, col in cols]


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
    return Fraction(*_fiber(profile, j[:-1], j[-1:])[0])


def check_step(T_minus_t) -> None:
    """Reject a step length ``T - t`` that is not a positive finite number."""
    if not (math.isfinite(T_minus_t) and T_minus_t > 0):
        raise ValueError(f"T_minus_t must be positive and finite, got {T_minus_t!r}")


def as_int(value, what: str) -> int:
    """``value`` as an int; one with a fractional part is rejected, not truncated."""
    n = int(value)
    if n != value:
        raise ValueError(f"{what} must be integers, got {value!r}")
    return n


def check_cap(p: int) -> None:
    """Reject a negative truncation cap ``p``."""
    if p < 0:
        raise ValueError(f"cap p must be non-negative, got p={p}")


def accurate_sum(arr: np.ndarray) -> float:
    """Compensated reduction: exact fsum over pairwise-summed chunks."""
    flat = np.ravel(arr)
    if flat.size <= 1024:
        return math.fsum(flat.tolist())
    n = (flat.size // 1024) * 1024
    chunks = flat[:n].reshape(-1, 1024).sum(axis=1)
    return math.fsum(chunks.tolist() + flat[n:].tolist())


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
    return scale * T_minus_t ** (profile.norm_exponent / 2) * 2.0 ** -(k + L) * float(bar)


def exact_norm(profile) -> Fraction:
    """Exact squared L2 norm of the iterated-integral kernel at T - t = 1;
    ``I_k = exact_norm(profile) * (T-t)^profile.norm_exponent``.

    At T - t = 1 the kernel is ``prod_m (-u_m)^(l_m)`` on the ordered
    simplex of [0, 1]^k (u_m the offset from t), so the iterated integral of
    its square is ``1 / prod_m s_m`` with ``s_m = sum_{i <= m} (2 l_i + 1)``.
    """
    den, s = 1, 0
    for l in _profile(profile):
        s += 2 * l + 1
        den *= s
    return Fraction(1, den)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _shell(profile: WeightProfile, q: int) -> Dict[tuple, tuple]:
    """Every reduced coefficient of the shell max(j) = q as ``{j: (n, d)}``, n / d exact.

    A (k-1)-prefix whose max is q takes j_k = 0..q, an older one only j_k = q.
    With every weight 0 the reflection u -> 1 - u of the simplex gives C_j =
    (-1)^|j| C_rev(j): compute j <= rev(j) and negate the mirrored numerators.
    """
    mirror, shell = profile.total_weight == 0, {}
    for prefix in product(range(q + 1), repeat=profile.k - 1):
        last = range(q + 1) if q in prefix else (q,)
        if mirror:
            last = [x for x in last if prefix + (x,) <= (x,) + prefix[::-1]]
        shell.update(zip([prefix + (x,) for x in last], _fiber(profile, prefix, last)))
    if mirror:
        shell.update({j[::-1]: (-n, d) if sum(j) % 2 else (n, d) for j, (n, d) in shell.items()})
    return shell


class CoeffTensor:
    """All reduced coefficients of one profile over the box {0..p}^k.

    Immutable after construction.  It stores only the float array that
    ``build_tensor`` rounds the exact coefficients into.
    """

    def __init__(self, profile: WeightProfile, p: int, scaled: np.ndarray):
        self.profile = _profile(profile)
        self.p = int(p)
        self._scaled = scaled

    @property
    def values(self) -> Dict[tuple, Fraction]:
        """Exact reduced coefficient of each multi-index (j_1 .. j_k, innermost first)
        of the box; not stored, so each access recomputes the whole box."""
        return {j: Fraction(*nd) for q in range(self.p + 1)
                for j, nd in _shell(self.profile, q).items()}

    def scaled_array(self) -> np.ndarray:
        """Dense float array of unit-interval scaled coefficients.

        Entry ``j`` is ``prod sqrt(2 j_m + 1) * 2^-(k + sum l) * barC_j``,
        i.e. the Fourier coefficient at T - t = 1 with the ``(T-t)`` power
        stripped; shape ``(p+1,) * k``.
        """
        return self._scaled

    def squared_sum_float(self, p: int) -> float:
        """Parseval sum over {0..p}^k at T-t = 1: the distinct-pattern error's reduction."""
        if not 0 <= p <= self.p:
            raise ValueError(f"requested p={p} outside the tensor's caps 0..{self.p}")
        arr = self._scaled[(slice(0, p + 1),) * self.profile.k]
        return accurate_sum(arr * arr)


# largest tensor built so far per profile, reused by planner and errors; and
# per profile the exact Parseval sums over {0..q}^k for q = 0, 1, ...
_tensor_cache: Dict[WeightProfile, CoeffTensor] = {}
_sq_sum_cache: Dict[WeightProfile, list] = {}
_tensor_lock = threading.Lock()


def _check_box(profile: WeightProfile, p: int) -> None:
    """Reject a box of more than ``ENTRY_CEILING`` entries or, for k >= 2, a cap above the
    Legendre degree ceiling (the inner polynomials need degree p; k = 1 has none)."""
    check_cap(p)
    k, n_entries = profile.k, (p + 1) ** profile.k
    if k >= 2 and p > MAX_DEGREE:
        raise ValueError(f"cap p={p} above the Legendre degree ceiling {MAX_DEGREE} "
                         f"for multiplicity {k}")
    if n_entries > ENTRY_CEILING:
        raise ValueError(f"box {(p + 1)}^{k} = {n_entries} entries exceeds ceiling {ENTRY_CEILING}")


def build_tensor(profile, p: int) -> CoeffTensor:
    """Compute every reduced coefficient over the box {0..p}^k, rounded to float.

    Deterministic.  The cached tensor of the profile, when its cap is at most
    ``p``, is extended over the new shells max(j) = q only: its float entries
    are copied, and each new entry is computed once; ``_check_box`` says what it rejects.
    """
    profile = _profile(profile)
    _check_box(profile, p)
    k, L, start = profile.k, profile.total_weight, 0
    scaled = np.empty((p + 1,) * k, dtype=np.float64)
    with _tensor_lock:
        base = _tensor_cache.get(profile)
    if base is not None and base.p <= p:
        scaled[(slice(0, base.p + 1),) * k] = base._scaled
        start = base.p + 1
    root = np.sqrt(2.0 * np.arange(p + 1) + 1.0)
    for q in range(start, p + 1):
        shell = _shell(profile, q)
        idx = tuple(np.array(list(shell)).T)
        # int true division rounds correctly, as float(Fraction(n, d)) does
        entries = np.array([n / d for n, d in shell.values()])
        for axis in range(k):
            entries *= root[idx[axis]]
        entries *= 2.0 ** -(k + L)
        scaled[idx] = entries
    return CoeffTensor(profile, p, scaled)


def parseval_defect(profile, p: int) -> Fraction:
    """Exact rational defect ``I_k - sum C^2`` over {0..p}^k at T - t = 1, from the
    profile's cached exact sums, extended shell by shell."""
    profile = _profile(profile)
    _check_box(profile, p)
    with _tensor_lock:
        sums = _sq_sum_cache.get(profile, [])
    if len(sums) <= p:
        sums, scale = list(sums), 4 ** (profile.k + profile.total_weight)
        for q in range(len(sums), p + 1):
            # C_j^2 at T - t = 1 is prod(2 j_m + 1) barC_j^2 / 4^(k + sum l)
            shell = sum(math.prod(2 * jm + 1 for jm in j) * Fraction(n, d) ** 2
                        for j, (n, d) in _shell(profile, q).items()) / scale
            sums.append(sums[-1] + shell if sums else shell)
        with _tensor_lock:
            if len(_sq_sum_cache.get(profile, [])) < len(sums):
                _sq_sum_cache[profile] = sums
    return exact_norm(profile) - sums[p]


def get_tensor(profile, p: int) -> CoeffTensor:
    """Shared tensor cache: returns a tensor with cap >= p for ``profile``."""
    check_cap(p)  # a cached tensor would read p = -1 as its top level
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
    """Drop all memoized prefix polynomials, moment columns, tensors and Parseval sums."""
    with _cache_lock:
        _prefix_cache.clear()
        _column_cache.clear()
    with _tensor_lock:
        _tensor_cache.clear()
        _sq_sum_cache.clear()
