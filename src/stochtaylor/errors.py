"""Exact mean-square truncation error of iterated Ito integral approximations.

One permutation-block rule covers every equality pattern of the Wiener
component indices: the error is the kernel norm minus the truncated sum of
``C_j * sum_{pi in G} C_{pi j}``, where G is the direct product of symmetric
groups acting on the multi-index entries within each block of equal
components.  The pairwise-distinct pattern reduces to the plain Parseval
defect; the all-equal pattern with all-zero weights collapses to zero.

A factorial upper bound (k! times the Parseval defect) is provided for
comparison; it is the quantity whose removal motivates the exact rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Tuple

import numpy as np

from .coefficients import WeightProfile, accurate_sum, check_cap, check_step, exact_norm, get_tensor

__all__ = [
    "IndexPattern",
    "ErrorResult",
    "exact_error",
    "normalized_error",
    "error_bound_kfact",
    "accurate_sum",
]


class IndexPattern:
    """Equality structure of the Wiener component indices (i_1 .. i_k).

    ``blocks`` partitions positions 1..k into groups sharing one component.
    All components are assumed >= 1 (no time integrations); patterns with a
    zero component are rejected at construction from indices.
    """

    __slots__ = ("k", "blocks")

    def __init__(self, k: int, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen = [pos for b in blocks for pos in b]
        if sorted(seen) != list(range(1, k + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{k}")
        if any(not b for b in blocks):
            raise ValueError("empty block")
        self.k = k
        self.blocks = tuple(sorted(blocks))

    @classmethod
    def from_indices(cls, indices) -> "IndexPattern":
        indices = tuple(int(i) for i in indices)
        if any(i < 1 for i in indices):
            raise ValueError("Wiener component indices must be >= 1 (no time components)")
        groups: dict[int, list[int]] = {}
        for pos, i in enumerate(indices, start=1):
            groups.setdefault(i, []).append(pos)
        return cls(len(indices), groups.values())

    @classmethod
    def distinct(cls, k: int) -> "IndexPattern":
        return cls(k, [(m,) for m in range(1, k + 1)])

    @classmethod
    def all_equal(cls, k: int) -> "IndexPattern":
        return cls(k, [tuple(range(1, k + 1))])

    @property
    def is_distinct(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def error_vanishes(self, profile: WeightProfile) -> bool:
        """True when every cap approximates exactly: all weights zero, one block.

        Such an integral is ``h^(k/2)/k! He_k(zeta_0)`` (Kloeden and Platen
        1992, sec. 5.2), a function of the degree-0 Gaussian alone.
        """
        return profile.total_weight == 0 and len(self.blocks) == 1

    def group_size(self) -> int:
        n = 1
        for b in self.blocks:
            n *= math.factorial(len(b))
        return n

    def axis_permutations(self) -> Iterator[Tuple[int, ...]]:
        """All position permutations moving entries only within blocks.

        Yielded as 0-based axis tuples suitable for ``np.transpose``.
        """
        for perms in product(*(permutations(b) for b in self.blocks)):
            axes = [0] * self.k
            for block, perm in zip(self.blocks, perms):
                for src, dst in zip(block, perm):
                    axes[dst - 1] = src - 1
            yield tuple(axes)

    def __eq__(self, other):
        return (
            isinstance(other, IndexPattern)
            and self.k == other.k
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.k, self.blocks))

    def __repr__(self):
        desc = "|".join("".join(map(str, b)) for b in self.blocks)
        return f"IndexPattern({self.k}, {desc})"


@dataclass(frozen=True)
class ErrorResult:
    """Mean-square truncation error of one approximation."""

    value: float
    profile: WeightProfile
    pattern: IndexPattern
    p: int
    T_minus_t: float

    @property
    def normalized(self) -> float:
        """Error divided by (T-t)^(k + 2 sum l), the tables' normalization."""
        return self.value / self.T_minus_t**self.profile.norm_exponent


_norm_err_cache: dict[tuple, float] = {}


def normalized_error(profile, pattern: IndexPattern, p: int) -> float:
    """Truncation error at T - t = 1, normalization of the error tables."""
    profile = WeightProfile(profile)
    if pattern.k != profile.k:
        raise ValueError(f"pattern multiplicity {pattern.k} != profile {profile.k}")
    key = (profile, pattern.blocks, p)
    cached = _norm_err_cache.get(key)
    if cached is not None:
        return cached
    tensor = get_tensor(profile, p)
    arr = tensor.scaled_array()[(slice(0, p + 1),) * profile.k]
    total = 0.0
    for axes in pattern.axis_permutations():
        total += accurate_sum(arr * np.transpose(arr, axes))
    raw = float(exact_norm(profile)) - total
    if raw < -1e-9:
        raise ArithmeticError(
            f"negative truncation error {raw} for {profile} {pattern}; coefficient bug"
        )
    value = max(raw, 0.0)
    _norm_err_cache[key] = value
    return value


def exact_error(profile, pattern: IndexPattern, p: int, T_minus_t: float) -> ErrorResult:
    """Exact mean-square error of the cap-``p`` approximation.

    ``I_k - sum_{j in {0..p}^k} C_j * sum_{pi in G} C_{pi j}`` with G the
    within-block permutation group of ``pattern``.
    """
    profile = WeightProfile(profile)
    check_cap(p)
    check_step(T_minus_t)
    norm = normalized_error(profile, pattern, p)
    return ErrorResult(norm * T_minus_t**profile.norm_exponent, profile, pattern, p, T_minus_t)


def error_bound_kfact(profile, p: int, T_minus_t: float) -> float:
    """Factorial upper bound ``k! (I_k - sum C_j^2)``.

    Dominates ``exact_error`` for every index pattern at the same cap.
    """
    profile = WeightProfile(profile)
    check_step(T_minus_t)
    defect = float(exact_norm(profile)) - get_tensor(profile, p).squared_sum_float(p)
    return math.factorial(profile.k) * defect * T_minus_t**profile.norm_exponent
