"""The library's refusals and small operator cases, each with the exact
exception type and message (or the exact value) a caller sees."""
import pytest

from commcount import perms
from commcount.chars import ClassFunction, build_table, rimhook_character
from commcount.counts import (
    ClassCounts,
    brute_f_n,
    brute_t_n,
    m_chi,
    naive_f_n,
    recursive_fn1,
    t_coeffs,
    tc_check_and_formula,
    theta_chi,
)
from commcount.cyclo import Cyclo, cyclo_root, parse_cyclo, split_primes
from commcount.distributions import convolve_power, distribution_from_counts, q3, uniform
from commcount.fileio import ClassRow, CoeffRow, CountReport
from commcount.groups import GroupLawError, GroupTable, SubgroupRef, make_group
from commcount.verify import run_suite


def _s3():
    return make_group("symmetric:3")


def _d3_character():
    return build_table(make_group("dihedral:3")).irreducibles[1]


def _e3():
    return cyclo_root(3)


CASES = {
    **{
        f"{fn.__name__}-n1": (lambda fn=fn: fn(_s3(), 1), ValueError("n must be at least 2"))
        for fn in (brute_f_n, naive_f_n, brute_t_n, t_coeffs, recursive_fn1, tc_check_and_formula)
    },
    "theta_chi-foreign-character": (
        lambda: theta_chi(_s3(), _d3_character(), 0),
        ValueError("character belongs to a different group"),
    ),
    "m_chi-foreign-character": (
        lambda: m_chi(_s3(), _d3_character()),
        ValueError("character belongs to a different group"),
    ),
    "class-function-length": (
        lambda: ClassFunction(_s3(), (Cyclo.rational(1),)),
        ValueError("expected 3 class values, got 1"),
    ),
    "rimhook-sizes": (
        lambda: rimhook_character((2,), (1,)), ValueError("partition sizes differ")
    ),
    "convolve-negative-power": (
        lambda: convolve_power(q3(brute_f_n(_s3(), 3)), -1),
        ValueError("k must be non-negative"),
    ),
    "distribution-zero-total": (
        lambda: distribution_from_counts(ClassCounts(_s3(), (0, 0, 0), "f", 3)),
        ValueError("cannot normalize a count with zero total"),
    ),
    "uniform-across-groups": (
        lambda: uniform(_s3()) == uniform(make_group("dihedral:3")), False
    ),
    "cyclo-root-zero": (
        lambda: cyclo_root(0), ValueError("conductor must be positive, got 0")
    ),
    "cyclo-divide-by-zero": (
        lambda: _e3() / 0, ZeroDivisionError("division of a cyclotomic value by zero")
    ),
    "cyclo-negative-power": (
        lambda: _e3() ** -1, ValueError("only non-negative integer powers are supported")
    ),
    "cyclo-add-string": (lambda: _e3() + "x", TypeError()),
    "cyclo-rsub": (lambda: (1 - _e3()) == parse_cyclo("1-E(3)"), True),
    "cyclo-repr": (lambda: repr(_e3()), "<Cyclo E(3)>"),
    "split-primes-too-few": (
        lambda: split_primes(1000, 10**30, 100),
        ArithmeticError("too few primes = 1 (mod 1000) below 100"),
    ),
    "closure-no-generator": (
        lambda: perms.closure([], 10), ValueError("need at least one generator")
    ),
    "cycle-point-range": (
        lambda: perms.parse_cycles("(1 4)", 3),
        ValueError("point 4 out of range for degree 3"),
    ),
    "group-table-empty": (lambda: GroupTable([]), GroupLawError("empty table")),
    "group-table-not-square": (
        lambda: GroupTable([[0, 1, 2], [1, 2, 0]]), GroupLawError("table is not square")
    ),
    "subgroup-without-identity": (
        lambda: SubgroupRef(_s3(), (1,)),
        GroupLawError("subgroup must contain the identity (index 0)"),
    ),
    "class-row-order": (
        lambda: ClassRow("1", 0, 1, "1"),
        ValueError("class rows need positive order and size"),
    ),
    "coeff-row-degree": (
        lambda: CoeffRow("c", 0, "1"), ValueError("character degree must be positive")
    ),
    "count-report-n": (
        lambda: CountReport("g", "f", 1, "brute", ()), ValueError("n must be at least 2")
    ),
    "unknown-suite": (
        lambda: run_suite("x"),
        ValueError("unknown suite 'x'; choose from ('paper', 'properties', 'all')"),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refusal_or_value(name):
    call, want = CASES[name]
    if not isinstance(want, BaseException):
        assert call() == want
        return
    with pytest.raises(type(want)) as caught:
        call()
    assert type(caught.value) is type(want)
    if want.args:
        assert str(caught.value) == str(want)
