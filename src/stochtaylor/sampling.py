"""Random generation of truncated iterated Ito and Stratonovich integrals.

The Ito evaluator implements the general Gaussian-product expansion: each
coefficient multiplies the Wick-type bracket ``prod zeta + sum over r of
(-1)^r sum over pair partitions of indicator products times the remaining
zetas``.  Pair indicators require equal Wiener components and equal basis
degrees.  The Stratonovich variant keeps only the plain product term.

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

    ``data`` has shape (m, p_max + 1) for a single draw or
    (paths, m, p_max + 1) for a batch.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim not in (2, 3):
            raise ValueError("panel must be (m, p+1) or (paths, m, p+1)")
        self.data = data

    @property
    def batched(self) -> bool:
        return self.data.ndim == 3

    @property
    def m(self) -> int:
        return self.data.shape[-2]

    @property
    def p_max(self) -> int:
        return self.data.shape[-1] - 1

    def component(self, i: int, p: int) -> np.ndarray:
        """zeta_0..zeta_p of Wiener component ``i`` (1-based), batch-shaped."""
        if not 1 <= i <= self.m:
            raise ValueError(f"component {i} outside 1..{self.m}")
        if p > self.p_max:
            raise ValueError(f"panel covers degrees <= {self.p_max}, need {p}")
        block = self.data[..., i - 1, : p + 1]
        return block if self.batched else block[np.newaxis, :]


def make_panel(rng: np.random.Generator, m: int, p_max: int,
               paths: int | None = None) -> GaussianPanel:
    """Draw a fresh panel; counter-based bit generators give reproducible
    independent streams under a documented seed."""
    shape = (m, p_max + 1) if paths is None else (paths, m, p_max + 1)
    return GaussianPanel(rng.standard_normal(shape))


def _bracket_terms(spec: IntegralSpec, p: int, panel: GaussianPanel) -> np.ndarray:
    """Sum over the truncated box of coefficient times Wick bracket.

    Each pair partition joining equal components adds (-1)^r times the
    coefficients summed over its pairs' diagonals, contracted with the
    singletons' zetas; r = 0 is the plain product.
    """
    coeff = _coeff_array(spec, p)
    idx = spec.wiener_indices
    total = 0.0
    for part in _all_partitions(spec.k):
        if any(idx[a - 1] != idx[b - 1] for a, b in part.pairs):
            continue
        axes = list(range(spec.k))
        for a, b in part.pairs:
            axes[b - 1] = axes[a - 1]
        kept = [axes[q - 1] for q in part.singletons]
        traced = np.einsum(coeff, axes, kept) if part.pairs else coeff
        zs = [panel.component(idx[q - 1], p) for q in part.singletons]
        total = total + (-1.0) ** part.r * _plain_product(traced, zs)
    return total


def _plain_product(coeff: np.ndarray, zs) -> np.ndarray:
    """Per-path sum over the box of coefficient times the plain zeta product.

    Axis q of ``coeff`` pairs with ``zs[q]`` (paths, p + 1).  The leading axis
    is contracted one degree at a time, so no intermediate outgrows a vector
    over paths; the last is a matrix-vector product.  No zetas: ``coeff``.
    """
    if len(zs) <= 1:
        return zs[0] @ coeff if zs else coeff
    return sum(zs[0][:, j] * _plain_product(coeff[j], zs[1:]) for j in range(len(coeff)))


def _coeff_array(spec: IntegralSpec, p: int) -> np.ndarray:
    arr = get_tensor(spec.profile, p).scaled_array()[(slice(0, p + 1),) * spec.k]
    k, L = spec.profile.k, spec.profile.total_weight
    return arr * spec.T_minus_t ** (k / 2 + L)


def _sample_pair00(spec: IntegralSpec, p: int, panel: GaussianPanel):
    """All-zero-weight pair integral over distinct components, closed form.

    The coefficient matrix is tridiagonal, so the double sum collapses to
    ``(T-t)/2 (z0 z0' + sum_i (z_{i-1} z_i' - z_i z_{i-1}')/sqrt(4i^2-1))``.
    """
    z1, z2 = (panel.component(i, p) for i in spec.wiener_indices)
    total = z1[:, 0] * z2[:, 0]
    if p >= 1:
        i = np.arange(1, p + 1)
        w = 1.0 / np.sqrt(4.0 * i * i - 1.0)
        total = total + ((z1[:, :-1] * z2[:, 1:] - z1[:, 1:] * z2[:, :-1]) * w).sum(axis=1)
    return 0.5 * spec.T_minus_t * total


def sample_ito(spec: IntegralSpec, p: int, panel: GaussianPanel):
    """Truncated Gaussian-product approximation of the iterated Ito integral.

    An integral whose error vanishes at every cap is evaluated at cap 0,
    whatever ``p``, and reads only the degree-0 Gaussians.  Returns a scalar
    for a single panel, an array of per-path values for a batched panel.
    """
    check_cap(p)
    if IndexPattern.from_indices(spec.wiener_indices).error_vanishes(spec.profile):
        total = _bracket_terms(spec, 0, panel)
    elif spec.profile == (0, 0):
        total = _sample_pair00(spec, p, panel)
    else:
        total = _bracket_terms(spec, p, panel)
    return total if panel.batched else float(total[0])


def sample_stratonovich(spec: IntegralSpec, p: int, panel: GaussianPanel):
    """Plain product-sum approximation (no indicator corrections).

    For multiplicity 2 with equal components this differs from the Ito value
    by the truncated diagonal sum of coefficients.
    """
    check_cap(p)
    zs = [panel.component(i, p) for i in spec.wiener_indices]
    total = _plain_product(_coeff_array(spec, p), zs)
    return total if panel.batched else float(total[0])


# ---------------------------------------------------------------------------
# discretization oracle
# ---------------------------------------------------------------------------


# Paths per oracle block are this many grid elements over N, so each of the
# oracle's two (rows, N) buffers stays cache-sized whatever the path count.
_BLOCK_ELEMENTS = 2**15


def _grid_array(increments) -> Tuple[np.ndarray, bool]:
    """Increments as a (paths, m, N) float array with N >= 2, and whether the
    input was a single (m, N) path."""
    arr = np.asarray(increments, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"increments must be (m, N) or (paths, m, N), got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError(f"need at least a 2-point grid, got N={arr.shape[-1]}")
    single = arr.ndim == 2
    return (arr[np.newaxis, ...] if single else arr), single


def discretization_oracle(spec: IntegralSpec, increments: np.ndarray):
    """Left-point iterated Riemann-Ito sum over a uniform grid.

    ``increments`` holds Wiener increments on an N-point uniform grid of the
    step interval, shaped (m, N) or (paths, m, N).  Nesting is innermost
    first: level m accumulates ``sum_l w_m(s_l) S_{m-1}(l) dW_l^(i_m)`` with
    ``w_m(s) = (-s)^{l_m}`` for time offset s from the interval start.

    Paths are streamed in blocks through two preallocated cache-sized
    buffers, so no temporary grows with the path count.  Each level forms
    ``(S_{m-1} * w_m) * dW`` and a sequential cumulative sum, the same
    operations in the same order for every block size.
    """
    arr, single = _grid_array(increments)
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
    return float(out[0]) if single else out


def zetas_from_increments(increments: np.ndarray, p: int, T_minus_t: float) -> GaussianPanel:
    """Panel built from the same Wiener increments the oracle consumes.

    ``zeta_j^(i) = sum_l phi_j(s_l) dW_l^(i)`` with left-endpoint evaluation,
    so expansion and oracle share one probability space.
    """
    check_cap(p)
    check_step(T_minus_t)
    arr, single = _grid_array(increments)
    N = arr.shape[-1]
    dt = T_minus_t / N
    s_left = np.arange(N) * dt
    phi = np.array([[eval_phi(j, s, 0.0, T_minus_t) for s in s_left] for j in range(p + 1)])
    data = np.einsum("jn,pin->pij", phi, arr)
    return GaussianPanel(data if not single else data[0])


def wiener_increments(rng: np.random.Generator, m: int, N: int, T_minus_t: float,
                      paths: int | None = None) -> np.ndarray:
    """Draw Wiener increments over a uniform N-point grid."""
    if N < 2:
        raise ValueError(f"need at least a 2-point grid, got N={N}")
    if m < 1:
        raise ValueError(f"need at least one Wiener component, got m={m}")
    if paths is not None and paths < 1:
        raise ValueError(f"need at least one path, got paths={paths}")
    check_step(T_minus_t)
    shape = (m, N) if paths is None else (paths, m, N)
    return rng.standard_normal(shape) * math.sqrt(T_minus_t / N)
