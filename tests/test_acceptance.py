"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Expected grids are frozen from the published tables; the two
documented single-cell discrepancies (order-1.0/1.5 grids at step 1/2) are
asserted at their computed values with the published value recorded.
"""

import time

import numpy as np
import pytest

from stochtaylor.coefficients import parseval_defect
from stochtaylor.errors import IndexPattern, exact_error, normalized_error
from stochtaylor.planner import (
    Condition,
    case_pattern,
    check_hypothesis,
    reproduce_table,
)
from stochtaylor.sampling import IntegralSpec, oracle_mse
from stochtaylor.schemes import estimate_strong_order, gbm_problem

from fractions import Fraction


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# published integer grids, Tables 1-13
# ---------------------------------------------------------------------------

T1 = {
    "3.1.a": [12, 16, 28, 36, 47, 50],
    "3.3.1.a": [6, 8, 14, 18, 23, 25],
    "3.3.2.a": [6, 8, 14, 18, 23, 25],
    "3.3.3.a": [12, 16, 28, 36, 47, 51],
}
T2 = {"2.1.b": [4, 8, 16], "2.2.b": [1, 1, 1], "2.1.c": [4, 8, 16], "2.2.c": [1, 1, 1]}
T3 = {"3.1.x": [6, 4, 2], "3.2.x": [0, 0, 0], "3.3.1.x": [3, 3, 1],
      "3.3.2.x": [3, 1, 1], "3.3.3.x": [6, 4, 2]}
T4 = {
    "4.1": [6, 8, 14, 15, 16],
    "4.3.1": [4, 5, 10, 11, 11], "4.3.2": [6, 8, 14, 15, 16],
    "4.3.3": [6, 8, 14, 15, 16], "4.3.4": [3, 5, 9, 9, 10],
    "4.3.5": [6, 8, 14, 15, 16], "4.3.6": [4, 5, 10, 11, 11],
    "4.4.1": [2, 3, 4, 5, 5], "4.4.2": [2, 3, 4, 5, 5],
    "4.4.3": [4, 6, 10, 11, 11], "4.4.4": [4, 6, 10, 11, 11],
    "4.5.1": [2, 3, 5, 6, 6], "4.5.2": [6, 8, 14, 15, 16], "4.5.3": [3, 5, 9, 9, 10],
}


def _k5_grid(q51, q53, q54, q55, q56, q57):
    grid = {"5.1": [q51]}
    grid.update({f"5.3.{i}": [v] for i, v in enumerate(q53, 1)})
    grid.update({f"5.4.{i}": [v] for i, v in enumerate(q54, 1)})
    grid.update({f"5.5.{i}": [v] for i, v in enumerate(q55, 1)})
    grid.update({f"5.6.{i}": [v] for i, v in enumerate(q56, 1)})
    grid.update({f"5.7.{i}": [v] for i, v in enumerate(q57, 1)})
    return grid


T5 = _k5_grid(0, [0] * 10, [0] * 10, [0] * 5, [0] * 15, [0] * 10)
T6 = _k5_grid(1, [1] * 10, [0] * 10, [0] * 5, [1] * 15, [0] * 10)
# The 5.3.1 (and Table 9's 5.7.1) caps publish values breaking the exact
# position-reflection symmetry E(5.3.1) == E(5.3.10), E(5.7.1) == E(5.7.7);
# the symmetric values (published 5.3.10/5.7.7 entries) are asserted here
# and the published cells (4/5/6 and 3) are recorded in the table notes.
T7 = _k5_grid(4,
              [3, 4, 4, 4, 3, 4, 4, 3, 4, 3],
              [2, 3, 3, 2, 3, 3, 2, 4, 3, 3],
              [1, 2, 2, 2, 1],
              [2, 4, 3, 3, 3, 4, 4, 2, 4, 4, 3, 3, 2, 4, 3],
              [1, 3, 2, 2, 3, 3, 1, 4, 3, 2])
T8 = _k5_grid(5,
              [4, 5, 5, 5, 3, 4, 5, 3, 5, 4],
              [2, 4, 4, 2, 3, 4, 2, 5, 3, 4],
              [1, 2, 2, 2, 1],
              [2, 4, 3, 4, 3, 5, 5, 2, 4, 5, 4, 3, 2, 4, 3],
              [1, 3, 2, 2, 3, 3, 1, 4, 3, 2])
T9 = _k5_grid(6,
              [4, 6, 6, 6, 4, 6, 6, 4, 6, 4],
              [3, 4, 4, 2, 4, 4, 3, 6, 4, 4],
              [1, 3, 3, 3, 1],
              [3, 6, 4, 4, 4, 6, 6, 3, 6, 6, 4, 4, 3, 6, 4],
              [1, 4, 3, 2, 4, 4, 1, 6, 4, 3])

# published 1 at step 1/2 is the documented discrepancy; computed value is 0
T10 = {"2.1.a": [0, 2, 32, 512]}
T11 = {
    "2.1.a": [0, 8, 128, 8192],  # published 1 at step 1/2, computed 0
    "3.1.a": [0, 1, 4, 32],
    "3.3.1.a": [0, 0, 2, 16], "3.3.2.a": [0, 0, 2, 16], "3.3.3.a": [0, 0, 4, 33],
}
T12 = {
    "2.1.a": [1, 8, 64, 512],
    "3.1.a": [0, 2, 8, 32], "3.3.1.a": [0, 1, 4, 16],
    "3.3.2.a": [0, 1, 4, 16], "3.3.3.a": [0, 2, 8, 33],
    "2.1.b": [0, 0, 1, 1], "2.2.b": [0, 0, 0, 0],
    "2.1.c": [0, 0, 0, 0], "2.2.c": [0, 0, 0, 0],
    **{case: [0, 0, 0, 0] for case in T4},
}
T13 = {
    "2.1.a": [2, 8, 32, 128],
    "3.1.a": [1, 3, 8, 23], "3.3.1.a": [0, 1, 4, 11],
    "3.3.2.a": [0, 1, 4, 11], "3.3.3.a": [0, 3, 8, 23],
    "2.1.b": [0, 1, 1, 2], "2.2.b": [0, 0, 0, 0],
    "2.1.c": [0, 0, 0, 2], "2.2.c": [0, 0, 0, 0],
    "4.1": [0, 0, 0, 2],
    "4.3.1": [0, 0, 0, 1], "4.3.2": [0, 0, 0, 1], "4.3.3": [0, 0, 0, 2],
    "4.3.4": [0, 0, 0, 1], "4.3.5": [0, 0, 0, 1], "4.3.6": [0, 0, 0, 1],
    "4.4.1": [0, 0, 0, 0], "4.4.2": [0, 0, 0, 0],
    "4.4.3": [0, 0, 0, 0], "4.4.4": [0, 0, 0, 0],
    "4.5.1": [0, 0, 0, 1], "4.5.2": [0, 0, 0, 1], "4.5.3": [0, 0, 0, 1],
    **{f"3.{s}.{letter}": [0, 0, 0, 0]
       for letter in "bcd" for s in ("1", "2", "3.1", "3.2", "3.3")},
    **{case: [0] * 4 for case in T5},
}

# ---------------------------------------------------------------------------
# published error values, Tables 14-22 (6 decimals)
# ---------------------------------------------------------------------------

E14 = {
    "3.1.a": [0.010154, 0.007681, 0.004433, 0.003456, 0.002652, 0.002494],
    "3.3.1.a": [0.005077, 0.003841, 0.002216, 0.001728, 0.001326, 0.001247],
    "3.3.2.a": [0.005077, 0.003841, 0.002216, 0.001728, 0.001326, 0.001247],
    "3.3.3.a": [0.010308, 0.007787, 0.004480, 0.003488, 0.002673, 0.002513],
}
E15 = {
    "4.1": [0.009636, 0.007425, 0.004378, 0.004096],
    "4.3.1": [0.006771, 0.005191, 0.003041, 0.002843],
    "4.3.2": [0.009722, 0.007502, 0.004424, 0.004139],
    "4.3.3": [0.009641, 0.007427, 0.004379, 0.004097],
    "4.3.4": [0.005997, 0.004614, 0.002720, 0.002545],
    "4.3.5": [0.009722, 0.007502, 0.004424, 0.004139],
    "4.3.6": [0.006771, 0.005191, 0.003041, 0.002843],
    "4.4.1": [0.003095, 0.002364, 0.001379, 0.001290],
    "4.4.2": [0.003095, 0.002364, 0.001379, 0.001290],
    "4.4.3": [0.006885, 0.005282, 0.003090, 0.002889],
    "4.4.4": [0.006885, 0.005282, 0.003090, 0.002889],
    "4.5.1": [0.003690, 0.002834, 0.001663, 0.001555],
    "4.5.2": [0.009756, 0.007545, 0.004457, 0.004170],
    "4.5.3": [0.006010, 0.004621, 0.002722, 0.002547],
}
E16 = {
    "2.1.b": [0.008950, 0.004660, 0.002383],
    "2.2.b": [0.000042, 0.000006, 0.000001],
    "2.1.c": [0.008950, 0.004660, 0.002383],
    "2.2.c": [0.000042, 0.000006, 0.000001],
}


def _k5_errors(e51, e53, e54, e55, e56, e57):
    grid = {"5.1": [e51]}
    grid.update({f"5.3.{i}": [v] for i, v in enumerate(e53, 1)})
    grid.update({f"5.4.{i}": [v] for i, v in enumerate(e54, 1)})
    grid.update({f"5.5.{i}": [v] for i, v in enumerate(e55, 1)})
    grid.update({f"5.6.{i}": [v] for i, v in enumerate(e56, 1)})
    grid.update({f"5.7.{i}": [v] for i, v in enumerate(e57, 1)})
    return grid


E17 = _k5_errors(0.008264, [0.008195] * 10, [0.007917] * 10, [0.006667] * 5,
                 [0.008056] * 15, [0.007500] * 10)
# 5.3.1 and 5.7.1 entries in the q >= 1 error tables publish values that
# break the reflection symmetry; the symmetric values (their 5.3.10/5.7.7
# twins) are asserted, published cells recorded in the table notes.
E18 = _k5_errors(
    0.007590,
    [0.006962, 0.007300, 0.007558, 0.007570, 0.007084,
     0.007432, 0.007558, 0.007084, 0.007300, 0.006962],
    [0.005488, 0.006701, 0.006976, 0.005995, 0.006679,
     0.006701, 0.005488, 0.007134, 0.006679, 0.006976],
    [0.003272, 0.005292, 0.005774, 0.005292, 0.003272],
    [0.006052, 0.007058, 0.007014, 0.006467, 0.007054, 0.007260, 0.007521,
     0.005819, 0.007412, 0.007260, 0.006467, 0.007054, 0.006052, 0.007058,
     0.007014],
    [0.003236, 0.006105, 0.006072, 0.005955, 0.006576,
     0.006105, 0.003236, 0.006797, 0.006576, 0.006072])
# the 5.6.14 entry is printed with a truncated final digit (0.00414); its
# value equals the symmetric case 5.6.2 = 0.004149
E19 = _k5_errors(
    0.004209,
    [0.003456, 0.004204, 0.004212, 0.004208, 0.003161,
     0.004180, 0.004212, 0.003161, 0.004204, 0.003456],
    [0.002351, 0.003461, 0.003460, 0.001982, 0.003189,
     0.003461, 0.002351, 0.004201, 0.003189, 0.003460],
    [0.001055, 0.002379, 0.002624, 0.002379, 0.001055],
    [0.002247, 0.004149, 0.003168, 0.003451, 0.003160, 0.004206, 0.004214,
     0.002590, 0.004180, 0.004206, 0.003451, 0.003160, 0.002247, 0.004149,
     0.003168],
    [0.001318, 0.003428, 0.002256, 0.001982, 0.003191,
     0.003428, 0.001318, 0.004124, 0.003191, 0.002256])
E20 = _k5_errors(
    0.003557,
    [0.002894, 0.003564, 0.003559, 0.003556, 0.002634,
     0.003552, 0.003559, 0.002634, 0.003564, 0.002894],
    [0.001940, 0.002910, 0.002897, 0.001642, 0.002661,
     0.002910, 0.001940, 0.003572, 0.002661, 0.002897],
    [0.000863, 0.001969, 0.002188, 0.001969, 0.000863],
    [0.001863, 0.003539, 0.002639, 0.002903, 0.002634, 0.003566, 0.003561,
     0.002155, 0.003552, 0.003566, 0.002903, 0.002634, 0.001863, 0.003539,
     0.002639],
    [0.001090, 0.002897, 0.001869, 0.001641, 0.002664,
     0.002897, 0.001090, 0.003531, 0.002664, 0.001869])
E21 = _k5_errors(
    0.003071,
    [0.002484, 0.003083, 0.003073, 0.003071, 0.002256,
     0.003077, 0.003073, 0.002256, 0.003083, 0.002484],
    [0.001650, 0.002503, 0.002486, 0.001399, 0.002281,
     0.002503, 0.001650, 0.003096, 0.002281, 0.002486],
    [0.000729, 0.001676, 0.001872, 0.001676, 0.000729],
    [0.001591, 0.003074, 0.002260, 0.002497, 0.002256, 0.003085, 0.003074,
     0.001841, 0.003077, 0.003085, 0.002497, 0.002256, 0.001591, 0.003074,
     0.002260],
    [0.000928, 0.002500, 0.001596, 0.001399, 0.002284,
     0.002500, 0.000928, 0.003074, 0.002284, 0.001596])
E22 = {
    "3.1.x": [0.009425, 0.009051, 0.008154],
    "3.2.x": [0.000007, 0.000049, 0.000147],
    "3.3.1.x": [0.004361, 0.006366, 0.004142],
    "3.3.2.x": [0.005044, 0.002731, 0.004778],
    "3.3.3.x": [0.009557, 0.009152, 0.007963],
}


def _grid_of(table):
    return dict(zip(table.row_labels, table.rows))


def _compare_q_table(table_id, expect):
    table = reproduce_table(table_id)
    got = _grid_of(table)
    mism = []
    for case, row in expect.items():
        grow = got[f"q({case})"]
        if grow != row:
            mism.append((case, grow, row))
    return table, mism


def _compare_e_table(table_id, expect):
    table = reproduce_table(table_id)
    labels = table.row_labels
    rows = table.rows
    mism = []
    case = None
    for label, row in zip(labels, rows):
        if label.startswith("q("):
            case = label[2:-1]
            continue
        want = expect[case]
        for got, ref in zip(row, want):
            if abs(got - ref) > 1.000001e-6:
                mism.append((case, got, ref))
    return mism


class TestCriterion1:
    def test_integer_tables(self):
        t0 = time.time()
        expectations = {1: T1, 2: T2, 4: T4, 5: T5, 6: T6, 7: T7, 8: T8, 9: T9,
                        10: T10, 11: T11, 12: T12, 13: T13}
        mismatches = []
        for tid, expect in expectations.items():
            _, mism = _compare_q_table(tid, expect)
            mismatches += [(tid,) + m for m in mism]
        # table 3 rows are per-integral columns
        got3 = _grid_of(reproduce_table(3))
        for case, row in T3.items():
            if got3[f"q({case})"] != row:
                mismatches.append((3, case, got3[f"q({case})"], row))
        # documented discrepancies carry notes
        assert any("discrepancy" in n for n in reproduce_table(10).notes)
        assert any("discrepancy" in n for n in reproduce_table(11).notes)
        for tid in (7, 8, 9):
            assert any("reflection" in n for n in reproduce_table(tid).notes)
        elapsed = time.time() - t0
        _report(1, not mismatches and elapsed < 300,
                f"Tables 1-13 integer grids, {elapsed:.0f}s" +
                (f"; mismatches {mismatches}" if mismatches else ""))


class TestCriterion2:
    def test_error_tables(self):
        mismatches = []
        for tid, expect in {14: E14, 15: E15, 16: E16, 17: E17, 18: E18,
                            19: E19, 20: E20, 21: E21, 22: E22}.items():
            mismatches += [(tid,) + m for m in _compare_e_table(tid, expect)]
        for tid in (18, 19, 20, 21):
            assert any("reflection" in n for n in reproduce_table(tid).notes)
        _report(2, not mismatches,
                "Tables 14-22 error values to 1e-6" +
                (f"; mismatches {mismatches}" if mismatches else ""))


class TestCriterion3:
    def test_factorial_comparison_tables(self):
        t23 = reproduce_table(23)
        t24 = reproduce_table(24)
        t25 = reproduce_table(25)
        ok = (
            t23.rows == [[0, 0, 1, 2, 4, 8], [1, 1, 8, 27, 125, 729],
                         [1, 3, 6, 12, 24, 48], [8, 64, 343, 2197, 15625, 117649]]
            and t24.rows == [[0] * 6, [1] * 6, [3, 4, 6, 9, 12, 17],
                             [256, 625, 2401, 10000, 28561, 104976]]
            and t25.rows == [[0] * 5, [1] * 5, [1, 2, 3, 4, 5],
                             [32, 243, 1024, 3125, 7776]]
        )
        _report(3, ok, "Tables 23-25 factorial-bound comparisons exact")


class TestCriterion4:
    def test_transcription_equivalence(self):
        from test_errors import (
            _sig12,
            transcribe_blocks,
            transcribe_pair,
            transcribe_triple,
        )

        failures = []
        for profile in [(0, 0), (0, 1), (1, 0)]:
            for p in range(7):
                for equal, pat in [(False, IndexPattern.distinct(2)),
                                   (True, IndexPattern.all_equal(2))]:
                    a = normalized_error(profile, pat, p)
                    b = transcribe_pair(profile, p, equal)
                    if not _sig12(a, max(b, 0.0)):
                        failures.append((profile, p, equal))
        triple_cases = {"1": IndexPattern.distinct(3), "2": IndexPattern.all_equal(3),
                        "3.1": IndexPattern(3, [(1, 2), (3,)]),
                        "3.2": IndexPattern(3, [(2, 3), (1,)]),
                        "3.3": IndexPattern(3, [(1, 3), (2,)])}
        for profile in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            for case, pat in triple_cases.items():
                for p in (0, 3, 6):
                    a = normalized_error(profile, pat, p)
                    b = transcribe_triple(profile, p, case)
                    if not _sig12(a, max(b, 0.0)):
                        failures.append((profile, p, case))
        k4 = [((1,), (2,), (3,), (4,)), ((1, 2, 3, 4),), ((1, 2), (3,), (4,)),
              ((1, 2, 3), (4,)), ((1, 2), (3, 4))]
        for blocks in k4:
            for p in (0, 2, 4, 6):
                a = normalized_error((0,) * 4, IndexPattern(4, blocks), p)
                b = transcribe_blocks((0,) * 4, p, blocks)
                if not _sig12(a, max(b, 0.0)):
                    failures.append((4, blocks, p))
        k5 = [((1,), (2,), (3,), (4,), (5,)), ((1, 2, 3, 4, 5),),
              ((1, 2), (3,), (4,), (5,)), ((1, 2, 3), (4,), (5,)),
              ((1, 2, 3, 4), (5,)), ((1, 2), (3, 4), (5,)), ((1, 2, 3), (4, 5))]
        for blocks in k5:
            for p in (0, 2, 4):
                a = normalized_error((0,) * 5, IndexPattern(5, blocks), p)
                b = transcribe_blocks((0,) * 5, p, blocks)
                if not _sig12(a, max(b, 0.0)):
                    failures.append((5, blocks, p))
        _report(4, not failures,
                "general rule == literal case transcriptions (12 sig figs)" +
                (f"; failures {failures}" if failures else ""))


class TestCriterion5:
    def test_degenerate_zero_patterns(self):
        worst = 0.0
        for k in (2, 3, 4, 5):
            for p in range(7):
                v = normalized_error((0,) * k, IndexPattern.all_equal(k), p)
                worst = max(worst, abs(v))
        _report(5, worst <= 1e-12, f"all-equal zero-weight errors vanish (max {worst:.2e})")


class TestCriterion6:
    def test_parseval_defect_closed_form(self):
        bad = [p for p in range(101)
               if parseval_defect((0, 0), p) != Fraction(1, 4 * (2 * p + 1))]
        _report(6, not bad, "exact rational pair defect 1/(4(2p+1)) for p <= 100")


class TestCriterion7:
    CASES = [
        ((0, 0), (1, 2)),
        ((0, 0), (1, 1)),
        ((1, 0), (1, 2)),
        ((0, 0, 0), (1, 2, 3)),
        ((0, 0, 0), (1, 1, 2)),
    ]
    PATHS = 200_000
    GRID = 2048

    def test_monte_carlo_validation(self):
        # cases sharing a noise dimension m share one seeded Wiener path
        specs = {case: IntegralSpec(*case, 1.0) for case in self.CASES}
        results = {}
        for m in sorted({max(indices) for _, indices in self.CASES}):
            group = [spec for spec in specs.values() if max(spec.wiener_indices) == m]
            rng = np.random.Generator(np.random.Philox(2024))
            results.update(oracle_mse(group, (0, 2, 5), rng, self.PATHS, self.GRID))
        failures = []
        for case in self.CASES:
            profile, indices = case
            pattern = IndexPattern.from_indices(indices)
            for p in (0, 2, 5):
                emp, se = results[specs[case], p]
                exact = exact_error(profile, pattern, p, 1.0).value
                # the left-point oracle carries Theta(1/N) discretization
                # noise; the explicit allowance covers it (decisive only for
                # the identically-zero equal-pair case)
                allowance = len(profile) ** 2 / self.GRID
                dev = abs(emp - exact)
                detail = (f"{profile}/{indices}/p={p}: |{emp:.6f}-{exact:.6f}|"
                          f" vs 4se={4 * se:.2e}+{allowance:.1e}")
                print(detail)
                if dev > 4 * se + allowance:
                    failures.append(detail)
        _report(7, not failures,
                f"MC vs oracle, {self.PATHS} paths, grid {self.GRID}" +
                (f"; failures {failures}" if failures else ""))


class TestCriterion8:
    def test_strong_orders_on_gbm(self):
        prob = gbm_problem(mu=0.5, sigma=1.0)
        steps = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7]
        paths = 20_000
        mil = estimate_strong_order(prob, "milstein", steps, paths, [1.0], 1.0, seed=42)
        eul = estimate_strong_order(prob, "euler", steps, paths, [1.0], 1.0, seed=43)
        t15 = estimate_strong_order(prob, "t15", steps, paths, [1.0], 1.0, seed=44)
        ok = (abs(mil.slope - 1.0) <= 0.15 and abs(eul.slope - 0.5) <= 0.15
              and t15.slope >= 1.3)
        _report(8, ok,
                f"slopes: milstein {mil.slope:.3f}, euler {eul.slope:.3f}, "
                f"t15 {t15.slope:.3f}")


class TestCriterion9:
    def test_dominance_hypothesis(self):
        violations = []
        checks = 0
        # Table 1 family: triple integral, order-1.5 condition
        for h in [0.011, 0.008, 0.0045, 0.0035, 0.0027, 0.0025]:
            rep = check_hypothesis((0, 0, 0), Condition(4), h)
            checks += 1
            violations += [(h, c.label, c.q, rep.distinct_q) for c in rep.violations]
        # Table 2 family: weighted pairs, order-2.0 condition
        for h in [0.010, 0.005, 0.0025]:
            for profile in [(0, 1), (1, 0)]:
                rep = check_hypothesis(profile, Condition(5), h)
                checks += 1
                violations += [(h, c.label, c.q, rep.distinct_q) for c in rep.violations]
        # Table 3 family: weighted triples at 0.01, order-2.5 condition
        for profile in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            rep = check_hypothesis(profile, Condition(6), 0.01)
            checks += 1
            violations += [(0.01, c.label, c.q, rep.distinct_q) for c in rep.violations]
        # Table 4 family: quadruple integral, order-2.0 condition
        for h in [0.011, 0.008, 0.0045, 0.0042, 0.0040]:
            rep = check_hypothesis((0, 0, 0, 0), Condition(5), h)
            checks += 1
            violations += [(h, c.label, c.q, rep.distinct_q) for c in rep.violations]
        # Tables 5-9: quintuple integral, order-2.5 condition
        for h in [0.011, 0.008, 0.0045, 0.0042, 0.0035]:
            rep = check_hypothesis((0,) * 5, Condition(6), h)
            checks += 1
            violations += [(h, c.label, c.q, rep.distinct_q) for c in rep.violations]
        expected = [(0.0025, "3.3.3.a", 51, 50)]
        _report(9, violations == expected,
                f"{checks} hypothesis checks; violations {violations} "
                f"(expected exactly {expected})")
