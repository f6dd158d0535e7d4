"""Random generation of truncated iterated Ito and Stratonovich integrals.

The Ito evaluator implements the general Gaussian-product expansion: each
coefficient multiplies the Wick-type bracket ``prod zeta + sum over r of
(-1)^r sum over pair partitions of indicator products times the remaining
zetas``.  Pair indicators require equal Wiener components and equal basis
degrees.  The Stratonovich variant keeps only the plain product term.
One kernel evaluates, in path blocks, a lone call's index tuple or, in
``stack_ito``, all m^k tuples of a profile.  Every sampler works on a batch
of paths; a single draw is a batch of one.

A discretization oracle evaluates the same integral as a left-point iterated
Riemann sum over a fine Wiener path; drawing the expansion's Gaussians from
the same increments puts both on one probability space, which is what makes
small-sample mean-square comparisons meaningful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .coefficients import WeightProfile, check_cap, check_step, get_tensor
from .errors import IndexPattern
from .legendre import eval_phi

__all__ = [
    "IntegralSpec",
    "GaussianPanel",
    "PairPartition",
    "enumerate_pair_partitions",
    "sample_ito",
    "stack_ito",
    "sample_stratonovich",
    "discretization_oracle",
    "zetas_from_increments",
    "wiener_increments",
    "make_panel",
]


@dataclass(frozen=True)
class PairPartition:
    """r disjoint unordered pairs plus the leftover singletons of {1..k}."""

    pairs: Tuple[Tuple[int, int], ...]
    singletons: Tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.pairs)


def enumerate_pair_partitions(k: int, r: int) -> List[PairPartition]:
    """All ways to pick r unordered disjoint pairs out of {1..k}.

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


@functools.cache
def _all_partitions(k: int) -> Tuple[PairPartition, ...]:
    return tuple(part for r in range(k // 2 + 1) for part in enumerate_pair_partitions(k, r))


@dataclass(frozen=True)
class IntegralSpec:
    """One iterated Ito integral: weights, Wiener components, step length."""

    profile: WeightProfile
    wiener_indices: Tuple[int, ...]
    T_minus_t: float

    def __init__(self, profile, wiener_indices, T_minus_t):
        profile = WeightProfile(profile)
        idx = tuple(int(i) for i in wiener_indices)
        if len(idx) != profile.k:
            raise ValueError("wiener_indices length must equal multiplicity")
        if any(i < 1 for i in idx):
            raise ValueError("Wiener component indices must be >= 1")
        check_step(T_minus_t)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "wiener_indices", idx)
        object.__setattr__(self, "T_minus_t", float(T_minus_t))

    @property
    def k(self) -> int:
        return self.profile.k


class GaussianPanel:
    """The i.i.d. standard normals zeta_j^(i) feeding one approximation.

    ``data`` has shape (paths, m, p_max + 1), read-only (a writable input is
    copied, so a caller's later writes cannot change the panel).
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError(f"panel must be (paths, m, p+1), none empty, got shape {data.shape}")
        self._data = data.copy() if data.flags.writeable or not data.flags.owndata else data
        self._data.flags.writeable = False

    data = property(lambda self: self._data)

    @property
    def m(self) -> int:
        return self.data.shape[-2]

    @property
    def p_max(self) -> int:
        return self.data.shape[-1] - 1

    def component(self, i: int, p: int) -> np.ndarray:
        """zeta_0..zeta_p of Wiener component ``i`` (1-based), (paths, p + 1)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"component {i} outside 1..{self.m}")
        if p > self.p_max:
            raise ValueError(f"panel covers degrees <= {self.p_max}, need {p}")
        return self.data[:, i - 1, : p + 1]


def _check_draw(m: int, paths: int) -> None:
    """Reject a random draw over no Wiener component or no path."""
    if m < 1:
        raise ValueError(f"need at least one Wiener component, got m={m}")
    if paths < 1:
        raise ValueError(f"need at least one path, got paths={paths}")


def make_panel(rng: np.random.Generator, m: int, p_max: int, paths: int) -> GaussianPanel:
    """Draw a fresh panel; counter-based bit generators give reproducible
    independent streams under a documented seed."""
    _check_draw(m, paths)
    if p_max < 0:
        raise ValueError(f"need a non-negative degree cap, got p_max={p_max}")
    data = rng.standard_normal((paths, m, p_max + 1))
    data.flags.writeable = False  # the panel's own, so it is not copied
    return GaussianPanel(data)


# Elements of per-path work per Wick-sum or oracle block; Wick sums take >= _MIN_ROWS paths.
_BLOCK_ELEMENTS = 2**15
_MIN_ROWS = 128


@functools.lru_cache(maxsize=1024)
def _tuple_tables(comps: Tuple[Tuple[int, ...], ...]):
    """The components used in ``comps``, their count in each index tuple (C order),
    and per pair partition the tuples whose pairs agree and their singletons' index."""
    pos = np.indices(tuple(map(len, comps))).reshape(len(comps), -1).T
    val = np.stack([np.take(c, pos[:, q]) for q, c in enumerate(comps)], axis=1)
    gathers = []
    for part in _all_partitions(len(comps)):
        agree = np.ones(len(pos), dtype=bool)
        for a, b in part.pairs:
            agree &= val[:, a - 1] == val[:, b - 1]
        single = [q - 1 for q in part.singletons]  # if none, flat is 0: see _contract
        flat = np.ravel_multi_index(pos[agree][:, single].T, [len(comps[q]) for q in single])
        gathers.append((np.flatnonzero(agree), flat))
    used = sorted(set().union(*comps))
    return used, (val[:, :, np.newaxis] == used).sum(axis=1), tuple(gathers)


@functools.lru_cache(maxsize=256)
def _wick_terms(profile: WeightProfile, p: int, T_minus_t: float, ito: bool):
    """(sign, coefficients summed over the pairs' diagonals, singletons) per
    pair partition, r = 0 first; the Stratonovich sum keeps only r = 0."""
    k, scale = profile.k, T_minus_t ** (profile.norm_exponent / 2)
    coeff = get_tensor(profile, p).scaled_array()[(slice(0, p + 1),) * k] * scale
    terms = []
    for part in _all_partitions(k) if ito else _all_partitions(k)[:1]:
        axes = list(range(k))
        for a, b in part.pairs:
            axes[b - 1] = axes[a - 1]
        traced = np.einsum(coeff, axes, [axes[q - 1] for q in part.singletons])
        terms.append(((-1.0) ** part.r, np.array(traced, order="C"), part.singletons))
    return tuple(terms)


def _contract(coeff: np.ndarray, zs) -> np.ndarray:
    """Per path and component tuple, the box sum of ``coeff`` times the zetas
    ``zs[q]`` (rows, m_q, p + 1): one GEMM, then a per-path matmul per axis."""
    if not zs:
        return coeff.reshape(1, 1)  # all paired: the same for every path
    rows, m, n = zs[0].shape
    x = (zs[0].reshape(-1, n) @ coeff.reshape(n, -1)).reshape(rows, m, -1)
    for z in zs[1:]:
        x = z[:, np.newaxis] @ x.reshape(rows, x.shape[1], n, -1)
        x = x.reshape(rows, -1, x.shape[-1])
    return x.reshape(rows, -1)


def _wick_sums(profile: WeightProfile, p: int, T_minus_t: float, ito: bool,
               panel: GaussianPanel, comps: Tuple[Tuple[int, ...], ...]) -> np.ndarray:
    """Box sum of coefficient times Wick bracket for every index tuple of
    ``comps`` (0-based components per axis), (tuples, paths) in C order: each
    pair partition adds (-1)^r times its contraction where its pairs agree.  The Ito
    sum is c0 prod_i He_{n_i}(zeta_0^(i)) at cap 0 (Kloeden and Platen 1992, 5.2) and,
    for (0,0), ``(T-t)/2 (z0 z0' - I + sum_i (z_{i-1} z_i' - z_i z_{i-1}')/sqrt(4i^2-1))``."""
    check_cap(p)
    used, counts, gathers = _tuple_tables(comps)
    panel.component(1 + used[-1], p)  # raises if the panel is too small
    z = panel.data[..., : p + 1]
    k, n, pair00 = len(comps), p + 1, ito and p > 0 and profile == (0, 0)
    terms = None if pair00 else _wick_terms(profile, p, T_minus_t, ito)
    # per path, tuples + k + 1 arrays as wide as the first contraction's output
    rows = max(_MIN_ROWS, _BLOCK_ELEMENTS // ((len(counts) + k + 1) * len(comps[0]) * n ** (k - 1)))
    out = np.empty((len(counts), len(z)))
    for a in range(0, len(z), rows):
        # the Hermite form is kept for speed alone: the general contraction gives the same
        # values to rounding but makes a bilinear t25 run about 1.6 times as slow
        if ito and p == 0:
            x = z[a:a + rows, used, 0]
            he = np.ones((k + 1,) + x.shape)
            for j in range(k):  # He_{j+1} = x He_j - j He_{j-1}
                he[j + 1] = x * he[j] - j * he[j - 1]
            total = terms[0][1].item() * he[counts, :, np.arange(len(used))].prod(axis=1).T
        elif pair00:
            z0, z1 = (z[a:a + rows, list(c)] for c in comps)
            w = 1.0 / np.sqrt(4.0 * np.arange(1, n) ** 2 - 1.0)
            total = z0[..., :1] * z1[:, None, :, 0] - np.equal.outer(*comps)
            total += np.einsum("rai,rbi,i->rab", z0[..., :-1], z1[..., 1:], w)
            total -= np.einsum("rai,rbi,i->rab", z0[..., 1:], z1[..., :-1], w)
            total *= 0.5 * T_minus_t
        else:
            zs = [z[a:a + rows, list(c)] for c in comps]
            total = _contract(terms[0][1], zs)
            for (sign, traced, singles), (tuples, flat) in zip(terms[1:], gathers[1:]):
                if len(tuples):  # else no tuple's paired components agree
                    x = _contract(traced, [zs[q - 1] for q in singles])
                    total[:, tuples] += sign * x[:, flat]
        out[:, a:a + rows] = total.reshape(len(total), -1).T
    return out


def _sample(spec: IntegralSpec, p: int, panel: GaussianPanel, ito: bool) -> np.ndarray:
    comps = tuple((i - 1,) for i in spec.wiener_indices)
    return _wick_sums(spec.profile, p, spec.T_minus_t, ito, panel, comps)[0]


def sample_ito(spec: IntegralSpec, p: int, panel: GaussianPanel) -> np.ndarray:
    """Truncated Gaussian-product approximation of the iterated Ito integral,
    one value per path of the panel.

    An integral whose error vanishes at every cap is evaluated at cap 0,
    whatever ``p``.
    """
    check_cap(p)
    if IndexPattern.from_indices(spec.wiener_indices).error_vanishes(spec.profile):
        p = 0
    return _sample(spec, p, panel, True)


def stack_ito(profile, p: int, T_minus_t: float, panel: GaussianPanel) -> np.ndarray:
    """Ito sums of all m^k index tuples of the panel's components at cap ``p``,
    evaluated at once: tuple (i_1, ..., i_k) at ``[i_1 - 1, ..., i_k - 1]`` of
    the (m, ..., m, paths) result.  Every tuple is evaluated at cap ``p``, a
    zero-error one too."""
    spec = IntegralSpec(profile, (1,) * len(profile), T_minus_t)
    w, h, k, m = spec.profile, spec.T_minus_t, spec.k, panel.m
    return _wick_sums(w, p, h, True, panel, (tuple(range(m)),) * k).reshape((m,) * k + (-1,))


def sample_stratonovich(spec: IntegralSpec, p: int, panel: GaussianPanel):
    """Plain product-sum approximation: the r = 0 term of the Ito sum.

    For multiplicity 2 with equal components this differs from the Ito value
    by the truncated diagonal sum of coefficients.
    """
    return _sample(spec, p, panel, False)


# ---------------------------------------------------------------------------
# discretization oracle
# ---------------------------------------------------------------------------


def _grid_array(increments) -> np.ndarray:
    """Increments as a (paths, m, N) float array with N >= 2."""
    arr = np.asarray(increments, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"increments must be (paths, m, N), got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError(f"need at least a 2-point grid, got N={arr.shape[-1]}")
    return arr


def discretization_oracle(spec: IntegralSpec, increments: np.ndarray) -> np.ndarray:
    """Left-point iterated Riemann-Ito sum over a uniform grid.

    ``increments`` holds Wiener increments on an N-point uniform grid of the
    step interval, shaped (paths, m, N).  Nesting is innermost
    first: level m accumulates ``sum_l w_m(s_l) S_{m-1}(l) dW_l^(i_m)`` with
    ``w_m(s) = (-s)^{l_m}`` for time offset s from the interval start.

    Paths are streamed in blocks through two preallocated cache-sized
    buffers, so no temporary grows with the path count.  Each level forms
    ``(S_{m-1} * w_m) * dW`` and a sequential cumulative sum, the same
    operations in the same order for every block size.
    """
    arr = _grid_array(increments)
    paths, m, N = arr.shape
    if max(spec.wiener_indices) > m:
        raise ValueError("increments cover fewer components than the integral needs")
    dt = spec.T_minus_t / N
    s_left = np.arange(N) * dt
    weights = [(-s_left) ** l if l else None for l in spec.profile]
    rows = max(1, min(paths, _BLOCK_ELEMENTS // N))
    c_buf, d_buf = np.empty((rows, N)), np.empty((rows, N))
    out = np.empty(paths)
    for a in range(0, paths, rows):
        b = min(a + rows, paths)
        c, d = c_buf[: b - a], d_buf[: b - a]
        for level, (w, i) in enumerate(zip(weights, spec.wiener_indices)):
            dW = arr[a:b, i - 1, :]
            if level == 0:
                if w is None:
                    np.copyto(c, dW)
                else:
                    np.multiply(w, dW, out=c)
            else:
                # the inner integral enters at the left endpoint: shift by one
                d[:, 0] = 0.0
                if w is None:
                    np.multiply(c[:, :-1], dW[:, 1:], out=d[:, 1:])
                else:
                    np.multiply(c[:, :-1], w[1:], out=d[:, 1:])
                    d[:, 1:] *= dW[:, 1:]
                c, d = d, c
            np.cumsum(c, axis=1, out=c)
        out[a:b] = c[:, -1]
    return out


def zetas_from_increments(increments: np.ndarray, p: int, T_minus_t: float) -> GaussianPanel:
    """Panel built from the same Wiener increments the oracle consumes.

    ``zeta_j^(i) = sum_l phi_j(s_l) dW_l^(i)`` with left-endpoint evaluation,
    so expansion and oracle share one probability space.
    """
    check_cap(p)
    check_step(T_minus_t)
    arr = _grid_array(increments)
    N = arr.shape[-1]
    dt = T_minus_t / N
    s_left = np.arange(N) * dt
    phi = np.array([[eval_phi(j, s, 0.0, T_minus_t) for s in s_left] for j in range(p + 1)])
    data = np.einsum("jn,pin->pij", phi, arr)
    data.flags.writeable = False
    return GaussianPanel(data)


def wiener_increments(rng: np.random.Generator, m: int, N: int, T_minus_t: float,
                      paths: int) -> np.ndarray:
    """Draw (paths, m, N) Wiener increments over a uniform N-point grid."""
    if N < 2:
        raise ValueError(f"need at least a 2-point grid, got N={N}")
    _check_draw(m, paths)
    check_step(T_minus_t)
    return rng.standard_normal((paths, m, N)) * math.sqrt(T_minus_t / N)
