"""Minimal truncation orders, error tables, and per-scheme truncation plans.

The single condition driving everything is ``E <= C * (T-t)^exponent`` with
``E`` the exact mean-square truncation error at cap ``p``; the planner finds
the smallest cap.  A catalog of index-pattern cases (labelled by multiplicity
family, e.g. ``3.3.1.a``) supports reproduction of the published q-integer
grids, error-value tables, and factorial-bound comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .coefficients import StoreCeilingError, WeightProfile, check_step
from .errors import IndexPattern, at_step, normalized_error
from .legendre import MAX_DEGREE

__all__ = [
    "Condition",
    "TruncationPlan",
    "HypothesisReport",
    "Table",
    "minimal_order",
    "minimal_order_kfact",
    "reproduce_table",
    "check_hypothesis",
    "scheme_plan",
    "case_catalog",
    "case_pattern",
    "scheme_terms",
    "scheme_profiles",
    "SCHEME_ORDER",
    "SCHEME_ORDERS",
    "SCHEME_TERMS",
    "TABLE_IDS",
]

DEFAULT_CAP_HIGH = 100


@dataclass(frozen=True)
class Condition:
    """Mean-square threshold ``E <= C (T-t)^exponent`` (or strict ``<``).

    Exponents 4, 5, 6 belong to the strong orders 1.5, 2.0, 2.5; exponent 3
    is the order-1.0 scheme's condition.
    """

    exponent: int
    constant: float = 1.0
    strict: bool = False

    def __post_init__(self):
        if self.exponent not in (3, 4, 5, 6):
            raise ValueError(f"exponent must be one of 3..6, got {self.exponent}")
        if not (math.isfinite(self.constant) and self.constant > 0):
            raise ValueError(f"constant must be positive and finite, got {self.constant!r}")

    def threshold(self, T_minus_t: float) -> Fraction:
        """Exact ``C (T-t)^exponent``, the step read as its exact binary value."""
        return Fraction(self.constant) * Fraction(T_minus_t) ** self.exponent

    def admits(self, value, threshold) -> bool:
        """``value < threshold`` if strict, else ``value <= threshold``: the one
        test every cap search makes."""
        return value < threshold if self.strict else value <= threshold


class PlannerCapError(RuntimeError):
    """Search exceeded the configured cap without satisfying the condition."""


def _normalized_threshold(condition: Condition, profile: WeightProfile,
                          T_minus_t: float) -> Fraction:
    """The bound on the error at T - t = 1: ``C (T-t)^exponent / (T-t)^norm_exponent``."""
    check_step(T_minus_t)
    return condition.threshold(T_minus_t) / Fraction(T_minus_t) ** profile.norm_exponent


def _first_cap(profile: WeightProfile, pattern: IndexPattern, condition: Condition,
               thr: Fraction, search_cap: int | None, goal: str) -> int:
    """First cap ``p`` whose normalized error ``condition`` admits against ``thr``.

    The distinct (0,0) error is the Parseval defect 1/(4(2p+1)), solved in
    integers with no degree ceiling.  Every other case ascends p = 0, 1, ...,
    each probe growing the profile's tensor by at most one shell, up to the
    Legendre degree ceiling ``MAX_DEGREE``; the error decreases in p, so the
    first hit is minimal.  A probe whose store the ceiling rejects ends the
    search as a ``PlannerCapError`` too.
    """
    if pattern.k != profile.k:
        raise ValueError(f"pattern multiplicity {pattern.k} != profile {profile.k}")
    if profile == (0, 0) and pattern.is_distinct:
        # 1/(4(2p+1)) <= thr  <=>  2p+1 >= 1/(4 thr); a strict tie needs one more
        p = max(0, math.ceil((1 / (4 * thr) - 1) / 2))
        return p if condition.admits(Fraction(1, 4 * (2 * p + 1)), thr) else p + 1
    if search_cap is None:
        search_cap = MAX_DEGREE if profile.k <= 2 else DEFAULT_CAP_HIGH
    cap = min(search_cap, MAX_DEGREE)
    for p in range(cap + 1):
        try:
            error = normalized_error(profile, pattern, p)
        except StoreCeilingError as exc:
            raise PlannerCapError(f"no cap below {p} satisfies {goal}: at cap {p} the {exc}") from exc
        if condition.admits(error, thr):
            return p
    raise PlannerCapError(f"no cap <= {cap} satisfies {goal}")


def minimal_order(profile, pattern: IndexPattern, condition: Condition,
                  T_minus_t: float, search_cap: int | None = None) -> int:
    """Smallest cap ``p >= 0`` satisfying ``condition`` for this integral."""
    profile = WeightProfile(profile)
    thr = _normalized_threshold(condition, profile, T_minus_t)
    return _first_cap(profile, pattern, condition, thr, search_cap,
                      f"E <= {condition.constant}*(T-t)^{condition.exponent} "
                      f"for profile {profile}, step {T_minus_t}")


def minimal_order_kfact(profile, condition: Condition, T_minus_t: float) -> int:
    """Smallest cap under the factorial bound ``k!(I_k - sum C^2) <= thr``.

    The bound is k! times the distinct-pattern error, so this is the distinct
    search against ``thr / k!``.
    """
    profile = WeightProfile(profile)
    thr = _normalized_threshold(condition, profile, T_minus_t) / math.factorial(profile.k)
    return _first_cap(profile, IndexPattern.distinct(profile.k), condition, thr, None,
                      f"the factorial bound for {profile}, step {T_minus_t}")


# ---------------------------------------------------------------------------
# case catalog: published case labels -> (profile, pattern blocks)
# ---------------------------------------------------------------------------

_K2_PROFILES = {"a": (0, 0), "b": (0, 1), "c": (1, 0)}
_K3_PROFILES = {"a": (0, 0, 0), "b": (0, 0, 1), "c": (0, 1, 0), "d": (1, 0, 0)}
_PROFILE_LETTERS = {v: key for table in (_K2_PROFILES, _K3_PROFILES) for key, v in table.items()}

_K3_CASES: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = [
    ("3.1", ((1,), (2,), (3,))),
    ("3.2", ((1, 2, 3),)),
    ("3.3.1", ((1, 2), (3,))),
    ("3.3.2", ((2, 3), (1,))),
    ("3.3.3", ((1, 3), (2,))),
]

_K4_CASES: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = [
    ("4.1", ((1,), (2,), (3,), (4,))),
    ("4.2", ((1, 2, 3, 4),)),
    ("4.3.1", ((1, 2), (3,), (4,))),
    ("4.3.2", ((1, 3), (2,), (4,))),
    ("4.3.3", ((1, 4), (2,), (3,))),
    ("4.3.4", ((2, 3), (1,), (4,))),
    ("4.3.5", ((2, 4), (1,), (3,))),
    ("4.3.6", ((3, 4), (1,), (2,))),
    ("4.4.1", ((1, 2, 3), (4,))),
    ("4.4.2", ((2, 3, 4), (1,))),
    ("4.4.3", ((1, 2, 4), (3,))),
    ("4.4.4", ((1, 3, 4), (2,))),
    ("4.5.1", ((1, 2), (3, 4))),
    ("4.5.2", ((1, 3), (2, 4))),
    ("4.5.3", ((1, 4), (2, 3))),
]

_K5_PAIRS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
_K5_TRIPLES = [
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (2, 3, 4), (2, 3, 5),
    (2, 4, 5), (3, 4, 5), (1, 3, 5), (1, 3, 4), (1, 4, 5),
]
_K5_QUADS = [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]
_K5_PAIR_PAIRS = [
    ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
    ((1, 2), (3, 5)), ((1, 5), (2, 3)), ((2, 5), (1, 3)),
    ((2, 5), (1, 4)), ((1, 2), (4, 5)), ((2, 4), (1, 5)),
    ((1, 4), (3, 5)), ((1, 3), (4, 5)), ((1, 5), (3, 4)),
    ((2, 3), (4, 5)), ((2, 4), (3, 5)), ((2, 5), (3, 4)),
]
_K5_TRIPLE_PAIRS = [
    ((1, 2, 3), (4, 5)), ((1, 2, 4), (3, 5)), ((1, 2, 5), (3, 4)),
    ((2, 3, 4), (1, 5)), ((2, 3, 5), (1, 4)), ((2, 4, 5), (1, 3)),
    ((3, 4, 5), (1, 2)), ((1, 3, 5), (2, 4)), ((1, 3, 4), (2, 5)),
    ((1, 4, 5), (2, 3)),
]


def _with_singletons(k: int, groups) -> Tuple[Tuple[int, ...], ...]:
    used = {pos for g in groups for pos in g}
    singles = tuple((m,) for m in range(1, k + 1) if m not in used)
    return tuple(groups) + singles


def _k5_cases() -> List[Tuple[str, Tuple[Tuple[int, ...], ...]]]:
    cases = [("5.1", _with_singletons(5, ())), ("5.2", ((1, 2, 3, 4, 5),))]
    cases += [(f"5.3.{i}", _with_singletons(5, (b,))) for i, b in enumerate(_K5_PAIRS, 1)]
    cases += [(f"5.4.{i}", _with_singletons(5, (b,))) for i, b in enumerate(_K5_TRIPLES, 1)]
    cases += [(f"5.5.{i}", _with_singletons(5, (b,))) for i, b in enumerate(_K5_QUADS, 1)]
    cases += [(f"5.6.{i}", _with_singletons(5, bs)) for i, bs in enumerate(_K5_PAIR_PAIRS, 1)]
    cases += [(f"5.7.{i}", _with_singletons(5, bs)) for i, bs in enumerate(_K5_TRIPLE_PAIRS, 1)]
    return cases


_K5_CASES = _k5_cases()


def case_catalog(k: int, letter: str = "") -> List[Tuple[str, WeightProfile, IndexPattern]]:
    """Published error-case labels for one integral family.

    ``letter`` selects the weight profile for k = 2, 3 (``a``..``d``); the
    all-zero-weight profile is implied for k = 4, 5.
    """
    if k == 2:
        profile = WeightProfile(_K2_PROFILES[letter or "a"])
        cases = [("2.1", ((1,), (2,))), ("2.2", ((1, 2),))]
    elif k == 3:
        profile = WeightProfile(_K3_PROFILES[letter or "a"])
        cases = _K3_CASES
    elif k == 4:
        profile, cases = WeightProfile((0,) * 4), _K4_CASES
    elif k == 5:
        profile, cases = WeightProfile((0,) * 5), _K5_CASES
    else:
        raise ValueError(f"no case catalog for multiplicity {k}")
    suffix = f".{letter}" if k in (2, 3) and letter else ""
    return [
        (label + suffix, profile, IndexPattern(k, blocks))
        for label, blocks in cases
    ]


def _published_cases(k, letter="", profile=None):
    """Catalog minus the cases whose error vanishes for ``profile`` (default
    the family's own); the published grids omit those rows."""
    return [
        (lab, pr, pat)
        for lab, pr, pat in case_catalog(k, letter)
        if not pat.error_vanishes(profile or pr)
    ]


def _family(label: str) -> Tuple[int, str]:
    """Multiplicity and weight letter of a case label, e.g. 3, "a" for 3.3.1.a."""
    last = label.rsplit(".", 1)[-1]
    return int(label.split(".", 1)[0]), last if last.isalpha() else ""


def case_pattern(label: str) -> Tuple[WeightProfile, IndexPattern]:
    """Look up one case by its published label, e.g. ``"3.3.1.a"``."""
    try:
        catalog = case_catalog(*_family(label))
    except (ValueError, KeyError) as exc:
        raise KeyError(f"unknown case label {label!r}") from exc
    for lab, profile, pattern in catalog:
        if lab == label:
            return profile, pattern
    raise KeyError(f"unknown case label {label!r}")


# ---------------------------------------------------------------------------
# hypothesis check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseResult:
    label: str
    pattern: IndexPattern
    q: int
    error_at_distinct_q: float
    exceeds_at_distinct_q: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Does the pairwise-distinct case dominate every other pattern?"""

    profile: WeightProfile
    condition: Condition
    T_minus_t: float
    distinct_q: int
    cases: Tuple[CaseResult, ...]

    @property
    def dominated(self) -> bool:
        return all(c.q <= self.distinct_q for c in self.cases)

    @property
    def violations(self) -> Tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if c.q > self.distinct_q)


def check_hypothesis(profile, condition: Condition, T_minus_t: float) -> HypothesisReport:
    """Compare the distinct-case minimal cap against every other pattern.

    Reports, for each pattern of the family, its own minimal cap and the
    error it attains at the distinct-case cap, flagging any pattern whose
    error still exceeds the threshold there.
    """
    profile = WeightProfile(profile)
    k = profile.k
    letter = _PROFILE_LETTERS.get(tuple(profile), "")
    if k in (2, 3) and not letter:
        listed = ", ".join(map(str, (_K2_PROFILES if k == 2 else _K3_PROFILES).values()))
        raise ValueError(f"no published cases for profile {tuple(profile)}; "
                         f"multiplicity {k} supports {listed}")
    distinct_q = minimal_order(profile, IndexPattern.distinct(k), condition, T_minus_t)
    thr = _normalized_threshold(condition, profile, T_minus_t)
    results = []
    for label, _, pattern in _published_cases(k, letter, profile):
        if pattern.is_distinct:
            continue
        q = minimal_order(profile, pattern, condition, T_minus_t)
        norm = normalized_error(profile, pattern, distinct_q)
        err = at_step(norm, profile, T_minus_t)
        results.append(CaseResult(label, pattern, q, err, not condition.admits(norm, thr)))
    return HypothesisReport(profile, condition, T_minus_t, distinct_q, tuple(results))


# ---------------------------------------------------------------------------
# scheme plans
# ---------------------------------------------------------------------------

#: strong order of each scheme, lowest first; a scheme evaluates every term
#: of the schemes listed before it
SCHEME_ORDER = {"euler": 1.0, "milstein": 1.0, "t15": 1.5, "t20": 2.0, "t25": 2.5}
SCHEME_ORDERS = tuple(sorted(set(SCHEME_ORDER.values())))

_HALF, _SIXTH = Fraction(1, 2), Fraction(1, 6)

#: The unified Taylor-Ito expansion, one row per term: (first scheme, operator
#: word, combination).  The combination is a sum of (coefficient, power of h,
#: weights) read as coefficient * h^power * I_(weights) over the word's index
#: tuple; empty weights stand for the bare h^power.  Each G of a word and a
#: trailing B take one index, so every integral of a row has that many.
SCHEME_TERMS = (
    ("euler", "a", ((1, 1, ()),)),
    ("euler", "B", ((1, 0, (0,)),)),
    ("milstein", "GB", ((1, 0, (0, 0)),)),
    ("t15", "Ga", ((1, 1, (0,)), (1, 0, (1,)))),
    ("t15", "LB", ((-1, 0, (1,)),)),
    ("t15", "GGB", ((1, 0, (0, 0, 0)),)),
    ("t15", "La", ((_HALF, 2, ()),)),
    ("t20", "GLB", ((1, 0, (1, 0)), (-1, 0, (0, 1)))),
    ("t20", "LGB", ((-1, 0, (1, 0)),)),
    ("t20", "GGa", ((1, 0, (0, 1)), (1, 1, (0, 0)))),
    ("t20", "GGGB", ((1, 0, (0, 0, 0, 0)),)),
    ("t25", "GLa", ((_HALF, 0, (2,)), (1, 1, (1,)), (_HALF, 2, (0,)))),
    ("t25", "LLB", ((_HALF, 0, (2,)),)),
    ("t25", "LGa", ((-1, 0, (2,)), (-1, 1, (1,)))),
    ("t25", "GLGB", ((1, 0, (1, 0, 0)), (-1, 0, (0, 1, 0)))),
    ("t25", "GGLB", ((1, 0, (0, 1, 0)), (-1, 0, (0, 0, 1)))),
    ("t25", "GGGa", ((1, 1, (0, 0, 0)), (1, 0, (0, 0, 1)))),
    ("t25", "LGGB", ((-1, 0, (1, 0, 0)),)),
    ("t25", "GGGGB", ((1, 0, (0, 0, 0, 0, 0)),)),
    ("t25", "LLa", ((_SIXTH, 3, ()),)),
)


def scheme_terms(scheme: str) -> List[tuple]:
    """Rows of ``SCHEME_TERMS`` a scheme evaluates, in table order."""
    names = list(SCHEME_ORDER)
    if scheme not in names:
        raise ValueError(f"scheme must be one of {tuple(names)}, got {scheme!r}")
    rank = names.index(scheme)
    return [row for row in SCHEME_TERMS if names.index(row[0]) <= rank]


def scheme_profiles(terms) -> List[tuple]:
    """Weight profiles of the integrals the terms use, by multiplicity."""
    profiles = {w for _, _, combo in terms for _, _, w in combo if w}
    return sorted(profiles, key=lambda w: (len(w), w))


@dataclass(frozen=True)
class TruncationPlan:
    """Minimal caps for every integral of one scheme at one step size."""

    order: float
    T_minus_t: float
    constant: float
    orders: Dict[tuple, int] = field(default_factory=dict)

    def cap(self, weights) -> int:
        return self.orders[tuple(weights)]

    def items(self):
        return self.orders.items()


def scheme_plan(order: float, T_minus_t: float, constant: float = 1.0) -> TruncationPlan:
    """Minimal truncation caps for one strong scheme at step ``T_minus_t``.

    Every multiplicity >= 2 integral is planned with the pairwise-distinct
    error formula; single integrals get their exact finite expansions (cap = weight).
    """
    if order not in SCHEME_ORDERS:
        raise ValueError(f"order must be one of {SCHEME_ORDERS}, got {order}")
    condition = Condition(int(2 * order + 1), constant)
    terms = [row for row in SCHEME_TERMS if SCHEME_ORDER[row[0]] <= order]
    orders: Dict[tuple, int] = {}
    for profile in scheme_profiles(terms):
        k = len(profile)
        orders[profile] = (profile[0] if k == 1 else
                           minimal_order(profile, IndexPattern.distinct(k), condition, T_minus_t))
    return TruncationPlan(order, T_minus_t, constant, orders)


# ---------------------------------------------------------------------------
# published tables
# ---------------------------------------------------------------------------


@dataclass
class Table:
    """One reproduced table: a labelled grid of integers or errors."""

    table_id: int
    caption: str
    col_labels: List[str]
    row_labels: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)

    def _cell(self, v) -> str:
        if isinstance(v, float):
            return f"{v:.6f}"
        return str(v)

    def to_markdown(self) -> str:
        head = "| " + " | ".join([""] + self.col_labels) + " |"
        sep = "|" + "---|" * (len(self.col_labels) + 1)
        lines = [head, sep]
        for label, row in zip(self.row_labels, self.rows):
            lines.append("| " + " | ".join([label] + [self._cell(v) for v in row]) + " |")
        out = [f"**Table {self.table_id}.** {self.caption}", "", *lines]
        if self.notes:
            out += [""] + [f"*{n}*" for n in self.notes]
        return "\n".join(out)

    def to_csv(self) -> str:
        lines = [",".join([f"table {self.table_id}"] + self.col_labels)]
        for label, row in zip(self.row_labels, self.rows):
            lines.append(",".join([label] + [self._cell(v) for v in row]))
        for n in self.notes:
            lines.append(f"# {n}")
        return "\n".join(lines)

    def cell(self, row_label: str, col_label: str):
        return self.rows[self.row_labels.index(row_label)][self.col_labels.index(col_label)]


def _fmt_step(x: float) -> str:
    if x == int(x):
        return str(int(x))
    log2 = math.log2(x)
    num = round(log2 * 8)
    if abs(num / 8 - log2) < 1e-12:
        g = math.gcd(abs(num), 8)
        num, den = num // g, 8 // g
        return f"2^{num}" if den == 1 else f"2^({num}/{den})"
    return f"{x:g}"


# Published cells that violate the position-reflection symmetry of the
# all-zero-weight error (reversing positions m -> k+1-m preserves the error,
# so case 5.3.1 equals 5.3.10 and 5.7.1 equals 5.7.7 identically; the
# printed values for 5.3.1/5.7.1 contradict the printed case formulas and a
# 4-sigma/19-sigma Monte Carlo check).  Keyed by table id.
_K5_REFLECTION_DISCREPANCIES = {
    7: {"q(5.3.1)": 4},
    8: {"q(5.3.1)": 5},
    9: {"q(5.3.1)": 6, "q(5.7.1)": 3},
    18: {"5.3.1": 0.007570, "5.7.1": 0.004175},
    19: {"5.3.1": 0.004208, "5.7.1": 0.002065},
    20: {"5.3.1": 0.003556, "5.7.1": 0.001728},
    21: {"5.3.1": 0.003071, "5.7.1": 0.001591},
}


class _Spec(NamedTuple):
    """One published table, as data.

    ``kind`` is ``q`` (minimal cap of every case at every step), ``e`` (error
    of every case at the distinct-case cap of the first case) or ``p``
    (exact-error vs factorial-bound caps of the first case).  ``cases`` are
    glob patterns over published case labels; a pattern ending in ``.x``
    takes each column's weight letter from ``letters``.  ``published`` lists
    (row, column, printed value) cells the condition as stated does not give.
    """

    kind: str
    caption: str
    exponent: int
    steps: tuple
    cases: tuple
    letters: str = ""
    published: tuple = ()


_K3_STEPS = (0.011, 0.008, 0.0045, 0.0035, 0.0027, 0.0025)
_K5_STEPS = (0.011, 0.008, 0.0045, 0.0042, 0.0035)
# the scheme tables 10-13 list growing prefixes of these families
_SCHEME_CASES = ("2.*.a", "3.*.a", "2.*.b", "2.*.c", "4.*", "3.*.b", "3.*.c", "3.*.d", "5.*")
_HALF_STEP_CELL = (("q(2.1.a)", "2^-1", 1),)

_TABLES = {
    1: _Spec("q", "Triple integral, all-zero weights; order-1.5 condition.", 4,
             _K3_STEPS, ("3.*.a",)),
    2: _Spec("q", "Weighted pair integrals; order-2.0 condition.", 5,
             (0.010, 0.005, 0.0025), ("2.*.b", "2.*.c")),
    3: _Spec("q", "Weighted triple integrals at T-t = 0.01; order-2.5 condition.", 6,
             (0.01,) * 3, ("3.*.x",), letters="bcd"),
    4: _Spec("q", "Quadruple integral; order-2.0 condition.", 5,
             (0.011, 0.008, 0.0045, 0.0042, 0.0040), ("4.*",)),
    **{tid: _Spec("q", f"Quintuple integral at T-t = {h}; order-2.5 condition.", 6,
                  (h,), ("5.*",))
       for tid, h in zip(range(5, 10), _K5_STEPS)},
    10: _Spec("q", "Order-1.0 scheme: pair integral caps.", 3,
              (0.5, 2.0**-4, 2.0**-8, 2.0**-12), _SCHEME_CASES[:1], published=_HALF_STEP_CELL),
    11: _Spec("q", "Order-1.5 scheme: pair and triple integral caps.", 4,
              (0.5, 2.0**-3, 2.0**-5, 2.0**-8), _SCHEME_CASES[:2], published=_HALF_STEP_CELL),
    12: _Spec("q", "Order-2.0 scheme: integral caps.", 5,
              (0.5, 0.25, 0.125, 0.0625), _SCHEME_CASES[:5]),
    13: _Spec("q", "Order-2.5 scheme: integral caps.", 6,
              (2.0**-1, 2.0**-1.5, 2.0**-2, 2.0**-2.5), _SCHEME_CASES),
    14: _Spec("e", "Triple integral: errors at the distinct-case cap.", 4,
              _K3_STEPS, ("3.*.a",)),
    15: _Spec("e", "Quadruple integral: errors at the distinct-case cap.", 5,
              (0.011, 0.008, 0.0045, 0.0042), ("4.*",)),
    16: _Spec("e", "Weighted pair integrals: errors at the distinct-case cap.", 5,
              (0.010, 0.005, 0.0025), ("2.*.b", "2.*.c")),
    **{tid: _Spec("e", f"Quintuple integral at T-t = {h}: errors at the distinct-case cap.",
                  6, (h,), ("5.*",))
       for tid, h in zip(range(17, 22), _K5_STEPS)},
    22: _Spec("e", "Weighted triple integrals at T-t = 0.01: errors at the distinct-case cap.",
              6, (0.01,) * 3, ("3.*.x",), letters="bcd"),
    23: _Spec("p", "Exact-error vs factorial-bound caps, triple integral.", 4,
              tuple(2.0**-e for e in range(1, 7)), ("3.1.a",)),
    24: _Spec("p", "Exact-error vs factorial-bound caps, quadruple integral.", 5,
              tuple(2.0 ** (-e / 2) for e in range(2, 8)), ("4.1",)),
    25: _Spec("p", "Exact-error vs factorial-bound caps, quintuple integral.", 6,
              tuple(2.0 ** (-e / 8) for e in (1, 2, 4, 6, 8)), ("5.1",)),
}

TABLE_IDS = tuple(_TABLES)


def _case_rows(spec: _Spec):
    """(row label, one (profile, pattern) per column) for the spec's cases."""
    rows = []
    for glob in spec.cases:
        per_col = []
        for letter in spec.letters or [""] * len(spec.steps):
            g = glob[:-1] + letter if glob.endswith(".x") else glob
            k, fam = _family(g)
            per_col.append([c for c in _published_cases(k, fam) if fnmatchcase(c[0], g)])
        for cases in zip(*per_col):
            label = cases[0][0][:-1] + "x" if glob.endswith(".x") else cases[0][0]
            rows.append((label, [(pr, pat) for _, pr, pat in cases]))
    return rows


def reproduce_table(table_id: int) -> Table:
    """Recompute one published table (1..25) from scratch."""
    spec = _TABLES.get(table_id)
    if spec is None:
        raise ValueError(f"table id must be in 1..25, got {table_id}")
    cond = Condition(spec.exponent)
    case_rows = _case_rows(spec)
    first = case_rows[0][1]
    col_labels = ([pr.label() for pr, _ in first] if spec.letters
                  else [_fmt_step(h) for h in spec.steps])
    row_labels, rows, notes = [], [], []
    if spec.kind == "q":
        for label, cases in case_rows:
            row_labels.append(f"q({label})")
            rows.append([minimal_order(pr, pat, cond, h)
                         for (pr, pat), h in zip(cases, spec.steps)])
    else:
        # both other kinds start from the distinct-case cap of the first case
        qs = [minimal_order(pr, IndexPattern.distinct(pr.k), cond, h)
              for (pr, _), h in zip(first, spec.steps)]
        profile = first[0][0]
        k = profile.k
        if spec.kind == "e":
            for label, cases in case_rows:
                row_labels += [f"q({label})", "E"]
                rows += [list(qs), [normalized_error(pr, pat, q)
                                    for (pr, pat), q in zip(cases, qs)]]
            notes.append(f"E normalized by (T-t)^{profile.norm_exponent}")
        else:
            pks = [minimal_order_kfact(profile, cond, h) for h in spec.steps]
            row_labels = ["p", f"(p+1)^{k}", "p'", f"(p'+1)^{k}"]
            rows = [qs, [(p + 1) ** k for p in qs], pks, [(p + 1) ** k for p in pks]]
            notes.append("p: exact-error condition; p': factorial-bound condition")
    table = Table(table_id, spec.caption, col_labels, row_labels, rows, notes)
    for row_label, col_label, printed in spec.published:
        notes.append(
            f"known discrepancy: published value at {row_label}, T-t = {col_label} "
            f"is {printed}; the condition as stated gives {table.cell(row_label, col_label)}"
        )
    cells = _K5_REFLECTION_DISCREPANCIES.get(table_id)
    if cells:
        listed = ", ".join(f"{k}={v}" for k, v in cells.items())
        notes.append(
            "known discrepancy: published values "
            f"{listed} break the position-reflection symmetry (5.3.1 == 5.3.10, "
            "5.7.1 == 5.7.7) implied by the case formulas; computed values shown"
        )
    return table
