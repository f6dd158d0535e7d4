"""Random generation of truncated iterated Ito integrals.

The Ito evaluator implements the general Gaussian-product expansion: each
coefficient multiplies the Wick-type bracket ``prod zeta + sum over r of
(-1)^r sum over pair partitions of indicator products times the remaining
zetas``.  Pair indicators require equal Wiener components and equal basis
degrees.  One kernel evaluates, in path blocks, a lone call's index tuple or, in
``stack_ito``, all m^k tuples of a profile.  Every sampler works on a batch
of paths; a single draw is a batch of one.

A discretization oracle evaluates the same integral as a left-point iterated
Riemann sum over a fine Wiener path; drawing the expansion's Gaussians from
the same increments puts both on one probability space, which is what makes
small-sample mean-square comparisons meaningful.  One validator, ``oracle_mse``,
streams such paths through both in blocks and reduces the squared gaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .coefficients import WeightProfile, as_int, check_cap, check_step, get_tensor
from .errors import IndexPattern
from .legendre import eval_phi

__all__ = [
    "IntegralSpec",
    "GaussianPanel",
    "sample_ito",
    "stack_ito",
    "discretization_oracle",
    "zetas_from_increments",
    "wiener_increments",
    "make_panel",
    "oracle_mse",
]


def _pairings(free: Tuple[int, ...], r: int):
    """(pairs, singletons) per way to pick r disjoint unordered pairs out of ``free``: its
    first element is paired with each later one in turn, then left single."""
    if r == 0:
        yield (), free
    elif len(free) >= 2 * r:
        head, rest = free[0], free[1:]
        for idx, other in enumerate(rest):
            for pairs, singles in _pairings(rest[:idx] + rest[idx + 1:], r - 1):
                yield ((head, other),) + pairs, singles
        for pairs, singles in _pairings(rest, r):
            yield pairs, (head,) + singles


@functools.cache
def _all_partitions(k: int) -> tuple:
    """(pairs, singletons) per pair partition of {1..k}, r = 0 pairs first."""
    return tuple(part for r in range(k // 2 + 1) for part in _pairings(tuple(range(1, k + 1)), r))


@dataclass(frozen=True)
class IntegralSpec:
    """One iterated Ito integral: weights, Wiener components, step length."""

    profile: WeightProfile
    wiener_indices: Tuple[int, ...]
    T_minus_t: float

    def __init__(self, profile, wiener_indices, T_minus_t):
        profile = WeightProfile(profile)
        idx = tuple(as_int(i, "Wiener component indices") for i in wiener_indices)
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
    copied, so a caller's later writes cannot change the panel).  The Hermite
    table of ``hermite`` is derived from it, read-only and freed with the panel.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError(f"panel must be (paths, m, p+1), none empty, got shape {data.shape}")
        self._data = data.copy() if data.flags.writeable or not data.flags.owndata else data
        self._data.flags.writeable = False
        self._he = np.broadcast_to(1.0, (1,) + self._data.shape[:2])  # He_0; no memory yet

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

    def hermite(self, k: int) -> np.ndarray:
        """He_0..He_K of every component's zeta_0, (K + 1, paths, m), read-only, K >= k the
        largest degree asked for yet: rows are added by He_{j+1} = x He_j - j He_{j-1}."""
        he, n = self._he, len(self._he)
        if n <= k:  # racing threads compute equal tables; either one is kept
            he = np.concatenate([he, np.ones((k + 1 - n,) + he.shape[1:])])
            for j in range(n - 1, k):  # at j = 0, He_{-1} is a row of ones, times 0
                he[j + 1] = self.data[..., 0] * he[j] - j * he[j - 1]
            he.flags.writeable = False
            self._he = he
        return he


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
    for pairs, singles in _all_partitions(len(comps)):
        agree = np.ones(len(pos), dtype=bool)
        for a, b in pairs:
            agree &= val[:, a - 1] == val[:, b - 1]
        single = [q - 1 for q in singles]  # if none, flat is 0: see _contract
        flat = np.ravel_multi_index(pos[agree][:, single].T, [len(comps[q]) for q in single])
        gathers.append((np.flatnonzero(agree), flat))
    used = sorted(set().union(*comps))
    return used, (val[:, :, np.newaxis] == used).sum(axis=1), tuple(gathers)


@functools.lru_cache(maxsize=256)
def _wick_terms(profile: WeightProfile, p: int, T_minus_t: float):
    """(sign, coefficients summed over the pairs' diagonals, singletons) per
    pair partition, r = 0 first."""
    k, scale = profile.k, T_minus_t ** (profile.norm_exponent / 2)
    coeff = get_tensor(profile, p).scaled_array()[(slice(0, p + 1),) * k] * scale
    terms = []
    for pairs, singles in _all_partitions(k):
        axes = list(range(k))
        for a, b in pairs:
            axes[b - 1] = axes[a - 1]
        traced = np.einsum(coeff, axes, [axes[q - 1] for q in singles])
        terms.append(((-1.0) ** len(pairs), np.array(traced, order="C"), singles))
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


def _wick_sums(profile: WeightProfile, p: int, T_minus_t: float, panel: GaussianPanel,
               comps: Tuple[Tuple[int, ...], ...]) -> np.ndarray:
    """Box sum of coefficient times Wick bracket for every index tuple of
    ``comps`` (0-based components per axis), (tuples, paths) in C order: each
    pair partition adds (-1)^r times its contraction where its pairs agree.  The
    sum is c0 prod_i He_{n_i}(zeta_0^(i)) at cap 0 (Kloeden and Platen 1992, 5.2) and,
    for (0,0), ``(T-t)/2 (z0 z0' - I + sum_i (z_{i-1} z_i' - z_i z_{i-1}')/sqrt(4i^2-1))``."""
    check_cap(p)
    used, counts, gathers = _tuple_tables(comps)
    panel.component(1 + used[-1], p)  # raises if the panel is too small
    z = panel.data[..., : p + 1]
    k, n, pair00 = len(comps), p + 1, p > 0 and profile == (0, 0)
    terms = None if pair00 else _wick_terms(profile, p, T_minus_t)
    # per path, tuples + k + 1 arrays as wide as the first contraction's output
    rows = max(_MIN_ROWS, _BLOCK_ELEMENTS // ((len(counts) + k + 1) * len(comps[0]) * n ** (k - 1)))
    out = np.empty((len(counts), len(z)))
    for a in range(0, len(z), rows):
        # the Hermite form, read from the panel's table, is kept for speed alone: the general
        # contraction gives the same values to rounding but makes a bilinear t25 run 1.6x slower
        if p == 0:
            total = terms[0][1].item() * panel.hermite(k)[counts, a:a + rows, used].prod(axis=1).T
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


def sample_ito(spec: IntegralSpec, p: int, panel: GaussianPanel) -> np.ndarray:
    """Truncated Gaussian-product approximation of the iterated Ito integral,
    one value per path of the panel.

    An integral whose error vanishes at every cap is evaluated at cap 0, whatever
    ``p``: its cap-0 coefficient times the panel's He_k(zeta_0) of its component.
    """
    check_cap(p)
    if IndexPattern.from_indices(spec.wiener_indices).error_vanishes(spec.profile):
        i, k = spec.wiener_indices[0], spec.k
        panel.component(i, 0)  # raises if the panel is too small
        return _wick_terms(spec.profile, 0, spec.T_minus_t)[0][1].item() * \
            panel.hermite(k)[k, :, i - 1]
    comps = tuple((i - 1,) for i in spec.wiener_indices)
    return _wick_sums(spec.profile, p, spec.T_minus_t, panel, comps)[0]


def stack_ito(profile, p: int, T_minus_t: float, panel: GaussianPanel) -> np.ndarray:
    """Ito sums of all m^k index tuples of the panel's components at cap ``p``,
    evaluated at once: tuple (i_1, ..., i_k) at ``[i_1 - 1, ..., i_k - 1]`` of
    the (m, ..., m, paths) result.  Every tuple is evaluated at cap ``p``, a
    zero-error one too."""
    spec = IntegralSpec(profile, (1,) * len(profile), T_minus_t)
    w, h, k, m = spec.profile, spec.T_minus_t, spec.k, panel.m
    return _wick_sums(w, p, h, panel, (tuple(range(m)),) * k).reshape((m,) * k + (-1,))


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
    data = np.einsum("jn,pin->pij", _basis(p, arr.shape[-1], float(T_minus_t)), arr)
    data.flags.writeable = False
    return GaussianPanel(data)


@functools.lru_cache(maxsize=32)
def _basis(p: int, N: int, T_minus_t: float) -> np.ndarray:
    """phi_0..phi_p at the N left grid points of the step, (p + 1, N), read-only."""
    s_left = np.arange(N) * (T_minus_t / N)
    phi = np.array([[eval_phi(j, s, 0.0, T_minus_t) for s in s_left] for j in range(p + 1)])
    phi.flags.writeable = False
    return phi


def wiener_increments(rng: np.random.Generator, m: int, N: int, T_minus_t: float,
                      paths: int) -> np.ndarray:
    """Draw (paths, m, N) Wiener increments over a uniform N-point grid."""
    if N < 2:
        raise ValueError(f"need at least a 2-point grid, got N={N}")
    _check_draw(m, paths)
    check_step(T_minus_t)
    out = rng.standard_normal((paths, m, N))
    out *= math.sqrt(T_minus_t / N)
    return out


# validator: increments per path block (16 MB), paths per sum of squared gaps
_PATH_BLOCK_ELEMENTS = 2**21
_CHUNK_PATHS = 20_000


def oracle_mse(specs, caps, rng: np.random.Generator, paths: int, grid: int):
    """``{(spec, p): (mean, stderr)}`` of the squared gap between each spec's Ito
    sum at cap p and its discretization oracle on one Wiener path over the specs'
    common step, drawn from one ``rng`` stream a block at a time and summed per
    ``_CHUNK_PATHS`` paths; m is the largest Wiener index."""
    if paths < 2:
        raise ValueError(f"paths must be at least 2, got {paths}")
    for name, arg in (("specs", specs), ("caps", caps)):
        if len(arg) == 0:
            raise ValueError(f"{name} must not be empty, got {arg!r}")
    T_minus_t = specs[0].T_minus_t
    if any(spec.T_minus_t != T_minus_t for spec in specs):
        raise ValueError("every spec must span one step")
    m = max(max(spec.wiener_indices) for spec in specs)
    rows = max(1, _PATH_BLOCK_ELEMENTS // (m * max(grid, 2)))  # a bad grid fails the draw
    keys = [(spec, p) for spec in specs for p in caps]
    d, sums = np.empty((len(keys), min(_CHUNK_PATHS, paths))), np.zeros((len(keys), 2))
    for done in range(0, paths, _CHUNK_PATHS):
        n = min(_CHUNK_PATHS, paths - done)
        for a in range(0, n, rows):
            inc = wiener_increments(rng, m, grid, T_minus_t, min(rows, n - a))
            panel = zetas_from_increments(inc, max(caps), T_minus_t)
            oracles = {spec: discretization_oracle(spec, inc) for spec in specs}
            for row, (spec, p) in zip(d, keys):
                row[a:a + len(inc)] = (oracles[spec] - sample_ito(spec, p, panel)) ** 2
            del inc  # free this block before the next is drawn
        sums += [(row.sum(), (row * row).sum()) for row in d[:, :n]]
    moments = [(s / paths, sq / paths) for s, sq in sums.tolist()]
    return {key: (mean, math.sqrt(max(sq - mean**2, 0.0) / paths))
            for key, (mean, sq) in zip(keys, moments)}
