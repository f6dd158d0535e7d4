"""Exact Fourier-Legendre coefficients of iterated-integral kernels.

The kernel of a multiplicity-k iterated integral with monomial time weights
``(t - tau)^{l_m}`` lives on the ordered simplex of ``[t, T]^k``.  Its Fourier
coefficient against a product of shifted orthonormal Legendre polynomials
factors into an exact rational "reduced" coefficient (an iterated polynomial
integral over the simplex of ``[-1, 1]^k``) times a closed-form scaling in
``T - t`` and the degrees.  After the change of variable u = (1 + x) / 2 each
polynomial F is held by its exact moments m_n = int_0^1 F P~_n du in integers
over one denominator, with no quadrature.  Times u, int_0^u and a Bonnet step
are one three-term pass each, and the outermost integral against P~_x reads m_x.

Sign convention: the reduced coefficient absorbs ``(-1)**sum(l)`` so that the
weighted k = 2, 3 coefficient tables carry their leading minus signs
verbatim.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from itertools import product
from typing import Dict

import numpy as np

from .legendre import MAX_DEGREE

__all__ = [
    "WeightProfile",
    "CoeffTensor",
    "StoreCeilingError",
    "bar_coefficient",
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


class StoreCeilingError(ValueError):
    """A coefficient store of more than ``ENTRY_CEILING`` floats was asked for."""


class WeightProfile(tuple):
    """Weight exponents (l_1 .. l_k), each 0..200, of one iterated integral, 1 <= k <= 6."""

    def __new__(cls, exponents):
        if isinstance(exponents, WeightProfile):
            return exponents
        exps = tuple(as_int(l, "weight exponents") for l in exponents)
        if not 1 <= len(exps) <= MAX_MULTIPLICITY:
            raise ValueError(f"multiplicity must be 1..{MAX_MULTIPLICITY}, got {len(exps)}")
        if not all(0 <= l <= MAX_DEGREE for l in exps):  # each l costs l moment steps
            raise ValueError(f"weight exponents must be in 0..{MAX_DEGREE}, got {exps}")
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


# ---------------------------------------------------------------------------
# reduced coefficients, integrated in u = (1 + x) / 2 over the [0, 1] simplex
# ---------------------------------------------------------------------------

# moments of F_m(u) = int_0^u P~_{j_m}(s) s^{l_m} F_{m-1}(s) ds, F_0 = 1, by the prefix
# ((l_1, j_1), ..., (l_m, j_m)), and by (its parent, l_m) the Bonnet pair of F_m at j_m - 1, j_m
_prefix_cache: Dict[tuple, tuple] = {}
_bonnet_cache: Dict[tuple, tuple] = {}
_lock = threading.Lock()


@functools.lru_cache(maxsize=128)
def _quotients(n: int) -> tuple:
    """D // (2i + 1) for i = 0..n, D = lcm(1, 3, ..., 2n + 1) (the first entry) the moment
    operators' denominator; the 128 latest lengths, as a walk reads them in turn."""
    D = math.lcm(*range(1, 2 * n + 2, 2))
    return tuple(D // (2 * i + 1) for i in range(n + 1))


def _reduced(nums: list, den: int) -> tuple:
    g = math.gcd(den, *nums)
    return tuple([c // g for c in nums]), den // g


def _times_u(nums: tuple, den: int, l: int) -> tuple:
    """u^l F by l one-pass steps u F = (F + (2u - 1) F) / 2, each reduced lest denominators
    compound: m'_n = ((2n + 1) m_n + (n + 1) m_{n+1} + n m_{n-1}) / (2 (2n + 1))."""
    for _ in range(l):
        q, m = _quotients(len(nums)), (0, *nums, 0, 0)  # m[n + 1] is m_n
        nums, den = _reduced([q[n] * ((2 * n + 1) * m[n + 1] + (n + 1) * m[n + 2] + n * m[n])
                              for n in range(len(nums) + 1)], 2 * q[0] * den)
    return nums, den


def _integral(nums: tuple, den: int) -> tuple:
    """int_0^u F: m'_n = (m_{n-1} - m_{n+1}) / (2 (2n + 1)), m_{-1} := m_0."""
    q, m = _quotients(len(nums)), (nums[0], *nums, 0, 0)  # m[n + 1] is m_n
    return _reduced([q[n] * (m[n] - m[n + 2]) for n in range(len(nums) + 1)], 2 * q[0] * den)


def _bonnet_step(i: int, prev: tuple, cur: tuple) -> tuple:
    """F_{i+1} = ((2i + 1) ((2u - 1) F_i - 2 int_0^u F_i) - i F_{i-1}) / (i + 1): one pass
    m'_n = ((2i + 1) ((n + 2) a_{n+1} + (n - 1) a_{n-1}) / (2n + 1) - i b_n) / (i + 1) over the
    moments a of F_i and b of F_{i-1} (a_{-1} := a_0), then one gcd."""
    (a, da), (b, db) = cur, prev
    den, q, m = math.lcm(da, db), _quotients(len(a)), (a[0], *a, 0, 0)  # m[n + 1] is a_n
    s, t, b = (2 * i + 1) * (den // da), i * (den // db) * q[0], (*b, 0, 0)
    return _reduced([s * q[n] * ((n + 2) * m[n + 2] + (n - 1) * m[n]) - t * b[n]
                     for n in range(len(a) + 1)], den * q[0] * (i + 1))


def _prefix(steps: tuple) -> tuple:
    """Moments ``(nums, den)``, in lowest terms, of the running simplex integral after the
    (l, j) pairs ``steps``, innermost first.  F_j = int_0^u P~_j G, G = u^l F (F the parent),
    is stepped from the Bonnet pair (i, F_{i-1}, F_i) of (parent, l) by Bonnet's recurrence
    (A&S 22.7.10) and int_0^u (2s - 1) h = (2u - 1) H - 2 int_0^u H.  A walk starts from
    F_0 = int_0^u G; j = i - 1 reads the pair's lower half and a lower j restarts."""
    cached = _prefix_cache.get(steps) if steps else ((1,), 1)
    if cached is not None:
        return cached
    parent, (l, j) = steps[:-1], steps[-1]
    state = _bonnet_cache.get((parent, l))
    if state is None or state[0] > j + 1:
        first = _integral(*_times_u(*_prefix(parent), l))
        state = (0, first, first)
    i, prev, cur = state
    while i < j:
        i, prev, cur = i + 1, cur, _bonnet_step(i, prev, cur)
    with _lock:
        _bonnet_cache[parent, l] = (i, prev, cur)
        return _prefix_cache.setdefault(steps, prev if j < i else cur)


def _fiber(profile: WeightProfile, prefix: tuple) -> tuple:
    """Moments ``(nums, den)`` of the outermost integrand u^l F, F the prefix's polynomial:
    the reduced coefficient of ``prefix + (x,)`` is ``(-1)^L 2^(k+L) nums[x] / den``, and
    zero above the integrand's degree by orthogonality."""
    return _times_u(*_prefix(tuple(zip(profile, prefix))), profile[-1])


def bar_coefficient(profile, j) -> Fraction:
    """Exact reduced Fourier-Legendre coefficient for multi-index ``j``.

    Computes ``(-1)**sum(l)`` times the iterated integral over the ordered
    simplex ``-1 <= x_1 <= ... <= x_k <= 1`` of
    ``prod_m P_{j_m}(x_m) (1 + x_m)^{l_m}``, with ``j_1`` innermost.  With
    x = 2u - 1 that is ``(-1)**L 2**(k+L)`` times the same integral of
    ``prod_m P~_{j_m}(u_m) u_m^{l_m}`` over ``0 <= u_1 <= ... <= u_k <= 1``:
    one read of the fiber of ``j[:-1]``, whose degrees must be at most ``MAX_DEGREE``.
    """
    profile = WeightProfile(profile)
    j = tuple(int(v) for v in j)
    if len(j) != profile.k:
        raise ValueError(f"multi-index length {len(j)} != multiplicity {profile.k}")
    if any(v < 0 for v in j):
        raise ValueError("multi-index entries must be non-negative")
    too_high = [v for v in j[:-1] if v > MAX_DEGREE]
    if too_high:
        raise ValueError(f"degree {too_high[0]} above practical ceiling {MAX_DEGREE}")
    (nums, den), L = _fiber(profile, j[:-1]), profile.total_weight
    return Fraction((-1) ** L * 2 ** (profile.k + L) * nums[j[-1]] if j[-1] < len(nums) else 0, den)


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


def exact_norm(profile) -> Fraction:
    """Exact squared L2 norm of the iterated-integral kernel at T - t = 1;
    ``I_k = exact_norm(profile) * (T-t)^profile.norm_exponent``.

    At T - t = 1 the kernel is ``prod_m (-u_m)^(l_m)`` on the ordered
    simplex of [0, 1]^k (u_m the offset from t), so the iterated integral of
    its square is ``1 / prod_m s_m`` with ``s_m = sum_{i <= m} (2 l_i + 1)``.
    """
    den, s = 1, 0
    for l in WeightProfile(profile):
        s += 2 * l + 1
        den *= s
    return Fraction(1, den)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------


def _fibers(profile: WeightProfile, prefixes):
    """``(prefix, nums, den)`` per (k-1)-prefix in ``prefixes``: its whole fiber's moments, the
    last degrees past ``len(nums)`` zero.  Each prefix's moments then leave ``_prefix_cache``
    (its Bonnet pair keeps them for a growth), so a route over a box keeps no leaf."""
    for prefix in prefixes:
        nums, den = _fiber(profile, prefix)
        _prefix_cache.pop(tuple(zip(profile, prefix)), None)
        yield prefix, nums, den


class CoeffTensor:
    """All reduced coefficients of one profile over the box {0..p}^k.

    Floats only: one immutable array of every (k-1)-prefix's whole fiber as ``build_tensor``
    rounds it (a prefix mirrored by time reversal stores its box row only, zeros past p),
    and the ``product_sum`` memo, shared with the tensors grown from this one.
    """

    def __init__(self, profile: WeightProfile, p: int, store: np.ndarray, sums=None):
        self.profile = WeightProfile(profile)
        self.p = int(p)
        self._store = store
        self._sums = {} if sums is None else sums

    @property
    def values(self) -> Dict[tuple, Fraction]:
        """Exact reduced coefficient of each multi-index (j_1 .. j_k, innermost first)
        of the box; not stored, so each access recomputes the whole box."""
        s = (-1) ** self.profile.total_weight * 2 ** (self.profile.k + self.profile.total_weight)
        box = product(range(self.p + 1), repeat=self.profile.k - 1)
        return {prefix + (x,): Fraction(s * nums[x] if x < len(nums) else 0, den)
                for prefix, nums, den in _fibers(self.profile, box) for x in range(self.p + 1)}

    def scaled_array(self) -> np.ndarray:
        """Dense float array of unit-interval scaled coefficients.

        Entry ``j`` is ``prod sqrt(2 j_m + 1) * 2^-(k + sum l) * barC_j``,
        i.e. the Fourier coefficient at T - t = 1 with the ``(T-t)`` power
        stripped; shape ``(p+1,) * k``, a view of the fiber store.
        """
        return self._store[..., :self.p + 1]

    def product_sum(self, p: int, axes: tuple) -> float:
        """``sum_j C_j C_{pi j}`` over {0..p}^k at T-t = 1, pi the axis permutation ``axes``,
        memoized per (p, axes) (racing threads store one float twice); p <= self.p."""
        total = self._sums.get((p, axes))
        if total is None:
            arr = self._store[(slice(0, p + 1),) * self.profile.k]
            total = self._sums[p, axes] = accurate_sum(arr * np.transpose(arr, axes))
        return total

    def squared_sum_float(self, p: int) -> float:
        """Parseval sum over {0..p}^k at T-t = 1: the distinct-pattern error's reduction."""
        if not 0 <= p <= self.p:
            raise ValueError(f"requested p={p} outside the tensor's caps 0..{self.p}")
        return self.product_sum(p, tuple(range(self.profile.k)))


# largest tensor built so far per profile, reused by planner and errors
_tensor_cache: Dict[WeightProfile, CoeffTensor] = {}


def _check_store(profile: WeightProfile, p: int) -> tuple:
    """The shape of the cap-p fiber store: the (k-1)-prefixes by the longest fiber, that of
    prefix (p, .., p); a prefix mirrored by time reversal fills its box row only.  Rejects a
    store of more than ``ENTRY_CEILING`` floats (a ``StoreCeilingError``) or, for k >= 2, a
    cap above the Legendre degree ceiling (the inner polynomials need degree p; k = 1 has
    none)."""
    check_cap(p)
    k = profile.k
    if k >= 2 and p > MAX_DEGREE:
        raise ValueError(f"cap p={p} above the Legendre degree ceiling {MAX_DEGREE} "
                         f"for multiplicity {k}")
    shape = (p + 1,) * (k - 1) + (max(p + 1, (k - 1) * (p + 1) + profile.total_weight + 1),)
    if (n := math.prod(shape)) > ENTRY_CEILING:
        raise StoreCeilingError(f"store shape {shape} = {n} floats exceeds ceiling {ENTRY_CEILING}")
    return shape


def _top(head: tuple) -> int:
    """For an all-zero profile with k >= 4, the last c whose fiber ``head + (c,)`` a build
    reads: a_2, or a_1 - 1 when a_1 is the head's largest entry.  u -> 1 - u reverses the
    simplex and P~_j(1 - u) = (-1)^j P~_j(u) (A&S ch. 22), so C_j = (-1)^|j| C_rev(j), and
    each entry above the top reverses into a read prefix whose largest index is the entry's."""
    return head[0] - 1 if head[0] > max(head[1:]) else head[1]


def build_tensor(profile, p: int) -> CoeffTensor:
    """Compute every reduced coefficient over the box {0..p}^k, rounded to float.

    Deterministic.  The cached tensor of the profile, when its cap is at most ``p``, is
    extended by the prefixes with a degree above that cap only, each fiber read once; its
    moments then leave ``_prefix_cache``.  An all-zero profile with k >= 4 reads only the
    prefixes up to ``_top`` per (k-2)-head; each other prefix stores its box row only, the
    signed unrooted entries of the reversed fibers read in the same build, then rooted in
    its own axis order.  ``_check_store`` says what it rejects.
    """
    profile = WeightProfile(profile)
    store = np.zeros(_check_store(profile, p))
    k, sign = profile.k, (-1) ** profile.total_weight
    mirrored = k >= 4 and not profile.total_weight
    with _lock:
        base = _tensor_cache.get(profile)
    start = base.p + 1 if base is not None and base.p <= p else 0
    if k == 1:  # one fiber, read when cold
        rows, new = [], [()] if not start else []
    else:  # per (k-2)-head, the new last indices lo..top: all of a new head's, else >= start
        rows = [(h, 0 if max(h, default=-1) >= start else start, _top(h) if mirrored else p)
                for h in product(range(p + 1), repeat=k - 2)]
        new = (h + (c,) for h, lo, top in rows for c in range(lo, top + 1))
    for prefix, nums, den in _fibers(profile, new):
        # C_j = prod sqrt(2 j_m + 1) (-1)^L n / den at T - t = 1: 2^(k+L) cancels.  Int
        # true division rounds as float(Fraction(n, d)) does; a float sign flip gives -0.0
        store[prefix][:len(nums)] = [sign * n / den for n in nums]
    if mirrored:  # C_(h, c, x) = (-1)^(|h| + c + x) C_(x, c, rev h[1:], h[0]) for c > top
        alt = 1.0 - 2.0 * (np.add.outer(np.arange(p + 1), np.arange(p + 1)) % 2)
        for h, lo, top in rows:  # new rows whole; of an old row, x >= start
            sgn = -alt if sum(h) % 2 else alt
            for cs, xs in ((slice(max(top + 1, lo), p + 1), slice(0, p + 1)),
                           (slice(top + 1, lo), slice(lo, p + 1))):
                out = store[h + (cs, xs)]
                np.multiply(store[(xs, cs) + h[::-1]].T, sgn[cs, xs], out=out)
                out += 0.0  # a negated zero is -0.0
    root = np.sqrt(2.0 * np.arange(store.shape[-1]) + 1.0)
    for axis in range(k):
        store *= root[:store.shape[axis]].reshape((-1,) + (1,) * (k - 1 - axis))
    if start:
        old = tuple(slice(0, n) for n in base._store.shape)
        if not mirrored:
            store[old] = base._store
        else:  # the base's mirrored rows end at its cap, and the entries above were just set
            store[old[:-1] + (slice(0, start),)] = base._store[..., :start]
            for h, lo, top in rows:
                if lo:  # an old head: top < start, and its read rows keep their tails
                    tail = (slice(0, top + 1), slice(start, old[-1].stop))
                    store[h + tail] = base._store[h + tail]
    return CoeffTensor(profile, p, store, base._sums if start else None)


def parseval_defect(profile, p: int) -> Fraction:
    """Exact rational defect ``I_k - sum C^2`` over {0..p}^k at T - t = 1, summed over
    ``_fibers`` on each call; it builds no tensor and is rejected as ``build_tensor`` is."""
    profile = WeightProfile(profile)
    _check_store(profile, p)
    total = Fraction(0)
    for prefix, nums, den in _fibers(profile, product(range(p + 1), repeat=profile.k - 1)):
        # C_j^2 at T - t = 1 is prod(2 j_m + 1) (n / den)^2: 4^(k + L) cancels
        total += Fraction(math.prod(2 * jm + 1 for jm in prefix)
                          * sum((2 * x + 1) * n * n for x, n in enumerate(nums[:p + 1])), den * den)
    return exact_norm(profile) - total


def get_tensor(profile, p: int) -> CoeffTensor:
    """Shared tensor cache: returns a tensor with cap >= p for ``profile``."""
    check_cap(p)  # a cached tensor would read p = -1 as its top level
    profile = WeightProfile(profile)
    with _lock:
        cached = _tensor_cache.get(profile)
    if cached is not None and cached.p >= p:
        return cached
    tensor = build_tensor(profile, p)
    with _lock:
        prev = _tensor_cache.get(profile)
        if prev is None or prev.p < tensor.p:
            _tensor_cache[profile] = tensor
        else:
            tensor = prev
    return tensor


def clear_caches() -> None:
    """Drop every module-level cache: the prefix moments, the Bonnet pairs and the tensors
    with their error sums."""
    with _lock:
        _prefix_cache.clear()
        _bonnet_cache.clear()
        _tensor_cache.clear()
