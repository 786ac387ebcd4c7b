"""End-to-end acceptance: thirteen headline guarantees, one test each.

Every comparison is exact -- integers, rationals, cyclotomic values -- with
no tolerances anywhere.  The structural work lives in the shared
verification suites; each test here asserts the rows it owns and fails with
the offending detail string.
"""

import pytest

from commcount.cli import main
from commcount.verify import run_suite


@pytest.fixture(scope="module")
def rows():
    return {r.name: r for r in run_suite("all")}


def _assert_rows(rows, names):
    for name in names:
        row = rows[name]
        assert row.passed, f"{name}: {row.detail}"


def test_criterion_01_a5_coefficient_vectors(rows):
    _assert_rows(
        rows,
        [
            "a5-f2-coefficients",
            "a5-f3-coefficients",
            "a5-t3-coefficients",
            "a5-tuple-probabilities",
        ],
    )


def test_criterion_02_a5_class_chart(rows):
    _assert_rows(rows, ["a5-class-chart", "a5-q3-top-value"])


def test_criterion_03_symmetric_base_counts(rows):
    _assert_rows(rows, ["symmetric-f3-base-counts"])


def test_criterion_04_dihedral_three_way(rows):
    _assert_rows(
        rows,
        [
            "dihedral-f3-coefficients-three-way",
            "dihedral-f3-values",
            "dihedral-t3-three-way",
        ],
    )


def test_criterion_05_oracle_equivalence_sweep(rows):
    _assert_rows(
        rows,
        [
            "f2-oracle-equivalence",
            "f3-oracle-equivalence",
            "t3-oracle-equivalence",
            "fn1-recursion-equivalence",
        ],
    )


def test_criterion_06_property_suite(rows):
    _assert_rows(
        rows,
        [
            "subgroup-monotonicity",
            "star-peak-at-identity",
            "f3-within-star-gap",
            "inverse-symmetry",
            "m-chi-real",
            "theta-tau-sum-agreement",
            "isoclinic-coefficient-match",
        ],
    )


def test_criterion_07_table_validation(rows):
    _assert_rows(rows, ["character-table-validation", "root-of-unity-sums"])


def test_criterion_08_bounds_suite(rows):
    _assert_rows(rows, ["bounds-chain", "gustafson-equality", "q3-power-two-paths"])


def test_criterion_09_ore_sets(rows):
    _assert_rows(rows, ["ore-sets"])


def test_criterion_10_constructive_solver(rows):
    _assert_rows(rows, ["triple-solver-class-reps"])


def test_criterion_11_a5_pn_closed_form(rows):
    _assert_rows(rows, ["a5-pn-closed-form"])


def test_criterion_12_benchmark_harness(capsys):
    code = main(
        [
            "bench",
            "--group", "dihedral:100",
            "--fn", "f3",
            "--methods", "brute-naive,brute,character",
            "--repeat", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "3 methods agree on all 53 classes" in out
    assert "speed ratio vs brute-naive" in out


def test_criterion_13_conjecture_monitor(rows):
    row = rows["f3-coefficient-monitor"]
    assert row.passed  # the monitor reports, it never fails the suite
    assert "VIOLATIONS" not in row.detail, row.detail
