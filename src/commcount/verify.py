"""Exact verification suites.

Two suites shared by the ``verify`` subcommand and the test suite.  The
``paper`` suite pins golden values for the worked examples: the A5 story
(coefficient vectors, class charts, probabilities), the symmetric-group base
counts, the dihedral closed forms against two independent computations, and
the A5 closed form for P_n(1).  The ``properties`` suite replays structural
identities over a fixed sweep of small groups: oracle equivalences, table
validation, monotonicity and symmetry of the counts, the bound chains, the
two paths to the convolution powers of Q_3, Ore sets, and the constructive
triple solver.  Rows take their groups from one cache per run, which builds
each once, and read the exhaustive counts (brute f2, f3, t3, and f4 for the
recursion) through `_oracle`, which searches each once per group and run.
Every row that checks a list of cases is a claim and a per-case predicate
run by `_row`: a case fails when its predicate returns True or a reason, or
raises ValueError, and the row names it with the reason or error text.

Every comparison is exact -- integers, rationals, cyclotomic literals.  A
CheckResult never carries a tolerance, and the conjecture monitor is the one
check that reports violations without failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction

import numpy as np

from .chars import (
    ClassFunction,
    TableValidationError,
    build_table,
    decompose,
    partitions_of,
)
from .counts import (
    ClassCounts,
    _aggregated_theta_weights,
    _m_values,
    _tau_weights,
    brute_f_n,
    brute_t_n,
    conjecture_report,
    f2_coeffs,
    f2_from_characters,
    f3_coeffs,
    f3_from_characters,
    ore_set,
    recursive_fn1,
    t_coeffs,
    t_from_characters,
)
from .cyclo import Cyclo, cyclo_root
from .dihedral import (
    f3_class_counts_closed,
    f3_coeffs_closed,
    t3_class_counts_closed,
    t3_coeffs_closed,
)
from .distributions import (
    bounds_report,
    convolve_power,
    p_n,
    q3,
    q3_power_by_characters,
)
from .groups import (
    GroupTable,
    center_and_derived,
    centralizer,
    conjugacy_classes,
    make_group,
)
from .perms import is_even, pcomm
from .triples import ore_triple_symmetric

SUITES = ("paper", "properties", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def sweep_specs() -> tuple[str, ...]:
    """The fixed sweep: every built-in family member of order <= 24, plus
    the two order-60/120 workhorses."""
    specs = [f"cyclic:{n}" for n in range(1, 25)]
    specs += [f"dihedral:{n}" for n in range(3, 13)]
    specs += ["quaternion", "symmetric:3", "symmetric:4"]
    specs += ["alternating:3", "alternating:4"]
    specs += ["alternating:5", "symmetric:5"]
    return tuple(specs)


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    group = cache(make_group)  # one build per spec and run: rows share its `_oracle`
    out: list[CheckResult] = []
    if suite in ("paper", "all"):
        out.extend(_paper_suite(group))
    if suite in ("properties", "all"):
        out.extend(_properties_suite(group))
    return out


# -- golden-value suite ----------------------------------------------------------


def _as_class_function(count: ClassCounts) -> ClassFunction:
    return ClassFunction(
        count.group, tuple(Cyclo.rational(v) for v in count.values)
    )


def _vec(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _row(suite: str, name: str, cases, claim: str, fails) -> CheckResult:
    """A row stating `claim` for each (label, case) of `cases`.  fails(case)
    is falsy where the claim holds; a case fails when it returns True or a
    reason, or raises ValueError, and the reason or error text follows its
    label."""
    bad = []
    for label, case in cases:
        try:
            why = fails(case)
        except ValueError as err:
            why = str(err)
        if why:
            bad.append(f"{label}: {why}" if isinstance(why, str) else label)
    return CheckResult(suite, name, not bad, f"{claim}{_bad(bad)}")


def _bad(items) -> str:
    return f"; FAILED at {items}" if items else ""


def _paper_suite(group) -> list[CheckResult]:
    out = []
    G = group("alternating:5")
    T = build_table(G)
    f2, f3, t3 = (_oracle(G, c) for c in ("f2", "f3", "t3"))

    for name, golden, direct, count in (
        ("a5-f2-coefficients", (60, 20, 20, 15, 12), f2_coeffs(T), f2),
        ("a5-f3-coefficients", (40, 64, 64, 84, 112), f3_coeffs(G, T), f3),
        ("a5-t3-coefficients", (300, 260, 260, 285, 324), t_coeffs(G, 3, T), t3),
    ):
        decomposed = decompose(_as_class_function(count), T)
        ok = tuple(direct) == golden and decomposed == golden
        out.append(
            CheckResult(
                "paper",
                name,
                ok,
                f"formula {_vec(direct)}, decomposed oracle {_vec(decomposed)}, "
                f"want {_vec(golden)}",
            )
        )

    p2, p3 = p_n(f2, 0), p_n(f3, 0)
    out.append(
        CheckResult(
            "paper",
            "a5-tuple-probabilities",
            p2 == Fraction(1, 12) and p3 == Fraction(11, 1800),
            f"P2(1) = {p2} (want 1/12), P3(1) = {p3} (want 11/1800)",
        )
    )

    chart_ok = f2.values == (300, 32, 63, 65, 65) and f3.values == (
        1320,
        24,
        12,
        20,
        20,
    )
    out.append(
        CheckResult(
            "paper",
            "a5-class-chart",
            chart_ok,
            f"f2 per class {_vec(f2.values)}, f3 per class {_vec(f3.values)}",
        )
    )

    q = q3(f3).at(0)
    out.append(
        CheckResult(
            "paper",
            "a5-q3-top-value",
            q == Fraction(11, 20),
            f"Q3(1) = {q} (want 11/20)",
        )
    )

    S3, S4 = group("symmetric:3"), group("symmetric:4")
    f3_s3, f3_s4 = _oracle(S3, "f3"), _oracle(S4, "f3")
    cycle3_s3 = S3.perm_list.index((1, 2, 0))
    double_s4 = S4.perm_list.index((1, 0, 3, 2))
    cycle3_s4 = S4.perm_list.index((1, 2, 0, 3))
    got = (
        f3_s3.at(0),
        f3_s3.at(cycle3_s3),
        f3_s4.at(double_s4),
        f3_s4.at(cycle3_s4),
    )
    out.append(
        CheckResult(
            "paper",
            "symmetric-f3-base-counts",
            got == (48, 6, 72, 12),
            f"S3: f3(1) = {got[0]}, f3(3-cycle) = {got[1]}; "
            f"S4: f3(double transposition) = {got[2]}, f3(3-cycle) = {got[3]}; "
            "want (48, 6, 72, 12)",
        )
    )

    out.extend(_dihedral_checks(group))
    out.append(_a5_pn_closed_form(G, f2, f3))
    return out


def _dihedral_checks(group) -> list[CheckResult]:
    cases = [(n, group(f"dihedral:{n}")) for n in range(3, 13)]
    return [
        _row("paper", "dihedral-f3-coefficients-three-way", cases,
             "closed form = character formula = decomposed oracle for n = 3..12",
             _dihedral_coeffs_differ),
        _row("paper", "dihedral-f3-values", cases,
             "closed per-class values = oracle = reconstruction for n = 3..12",
             _dihedral_values_differ),
        _row("paper", "dihedral-t3-three-way", cases,
             "closed star counts = coefficient formula = oracle for n = 3..12",
             _dihedral_stars_differ),
    ]


def _dihedral_coeffs_differ(G) -> bool:
    closed = f3_coeffs_closed(G.order // 2).as_row_tuple()
    decomposed = decompose(_as_class_function(_oracle(G, "f3")), build_table(G))
    return not (tuple(f3_coeffs(G)) == closed == decomposed)


def _dihedral_values_differ(G) -> bool:
    return not (f3_class_counts_closed(G) == _oracle(G, "f3") == f3_from_characters(G))


def _dihedral_stars_differ(G) -> bool:
    t3 = _oracle(G, "t3")
    star = tuple(t_coeffs(G, 3)) == t3_coeffs_closed(G.order // 2).as_row_tuple()
    return not (star and t3_class_counts_closed(G) == t3 == t_from_characters(G, 3))


def _a5_pn_closed_form(G, f2, f3) -> CheckResult:
    def closed(n: int) -> Fraction:
        return (
            Fraction(6, 12**n)
            + Fraction(5, 15**n)
            + Fraction(10, 20**n)
            - Fraction(20, 60**n)
        )

    computed = {
        2: p_n(f2, 0),
        3: p_n(f3, 0),
        4: Fraction(recursive_fn1(G, 4), G.order**4),
    }
    ok = all(closed(n) == computed[n] for n in (2, 3, 4))
    detail = ", ".join(
        f"P{n}(1) = {computed[n]} vs closed {closed(n)}" for n in (2, 3, 4)
    )
    return CheckResult("paper", "a5-pn-closed-form", ok, detail)


# -- structural-property suite ----------------------------------------------------


def _properties_suite(group) -> list[CheckResult]:
    sweep = [group(s) for s in sweep_specs()]
    validation, tabled = _table_validation(sweep)
    # Rows that need a character table run on the groups whose table held.
    return [
        validation,
        _row("properties", "root-of-unity-sums", [(n, n) for n in range(2, 31)],
             "full and half-orbit power sums equal -1 for n = 2..30", _root_sums_differ),
        _sweep_row("f2-oracle-equivalence", tabled, "class-equation formula = oracle",
                   lambda G: f2_from_characters(G) != _oracle(G, "f2")),
        _sweep_row("f3-oracle-equivalence", tabled, "coefficient reconstruction = oracle",
                   lambda G: f3_from_characters(G) != _oracle(G, "f3")),
        _sweep_row("t3-oracle-equivalence", tabled, "star-count reconstruction = oracle",
                   lambda G: t_from_characters(G, 3) != _oracle(G, "t3")),
        _fn1_recursion(sweep),
        _subgroup_monotonicity(group),
        _sweep_row("star-peak-at-identity", sweep, "t3(g) <= t3(1)",
                   lambda G: max(_oracle(G, "t3").values) > _oracle(G, "t3").at(0)),
        _sweep_row("f3-within-star-gap", sweep, "f3(g) <= t3(g) - f2(g) for g != 1",
                   _above_star_gap),
        _sweep_row("inverse-symmetry", sweep, "f2, f3, t3 take equal values at g and g^-1",
                   lambda G: any(_oracle(G, c).at(G.inv[r]) != _oracle(G, c).at(r)
                                 for c in ("f2", "f3", "t3")
                                 for r in conjugacy_classes(G).reps)),
        _sweep_row("m-chi-real", tabled, "every f3 character weight is real", _m_not_real),
        _sweep_row("theta-tau-sum-agreement", tabled,
                   "summing the pair weights by rows and by columns agrees",
                   _theta_tau_differ),
        _isoclinic_match(group),
        _sweep_row("bounds-chain", tabled, "every recorded inequality holds", _bounds_fail),
        _gustafson_equality(group("dihedral:4")),
        _q3_power_paths(tabled),
        _ore_sets(group),
        _triple_solver(),
        _conjecture_monitor(tabled),
    ]


def _sweep_row(name: str, groups, claim: str, fails) -> CheckResult:
    """A properties row stating `claim` on each of `groups`, labelled by spec."""
    cases = [(G.spec, G) for G in groups]
    return _row("properties", name, cases, f"{claim} on {len(groups)} groups", fails)


def _oracle(G: GroupTable, count: str) -> ClassCounts:
    """The exhaustive count `count` ("f2", "f3", "f4" or "t3") of G that the
    rows read, searched at most once per group."""
    search = brute_t_n if count[0] == "t" else brute_f_n
    return G.cached(("verify-oracle", count), search, int(count[1:]))


def _table_validation(groups) -> tuple[CheckResult, list[GroupTable]]:
    """The validation row, read from the reports build_table stored (a passing
    product identity covers every class-rep pair), and the tables that held."""
    bad, tabled, names = [], [], []
    for G in groups:
        try:
            names = [c.name for c in build_table(G).report.checks]
        except TableValidationError:
            bad.append(G.spec)
            continue
        tabled.append(G)
    row = CheckResult(
        "properties",
        "character-table-validation",
        not bad,
        f"{', '.join(names)} on {len(tabled)} groups; product-identity: "
        f"all class-rep pairs on {len(tabled)} groups{_bad(bad)}",
    )
    return row, tabled


def _root_sums_differ(n: int) -> bool:
    sums = [sum((cyclo_root(n, k) for k in range(1, n)), Cyclo.zero())]
    if n % 2:
        sums.append(sum(
            (cyclo_root(n, 2 * k) + cyclo_root(n, -2 * k % n)
             for k in range(1, (n - 1) // 2 + 1)),
            Cyclo.zero(),
        ))
    return any(s != Cyclo.rational(-1) for s in sums)


def _fn1_recursion(groups) -> CheckResult:
    cases = [(f"{G.spec} (n={n})", (G, n)) for G in groups for n in (3, 4)]
    return _row("properties", "fn1-recursion-equivalence", cases,
                "centralizer recursion = oracle at identity, n = 3 and 4, "
                f"on {len(groups)} groups", _fn1_differs)


def _fn1_differs(case) -> bool:
    G, n = case
    return recursive_fn1(G, n) != _oracle(G, f"f{n}").at(0)


def _subgroup_monotonicity(group) -> CheckResult:
    specs = ("symmetric:3", "symmetric:4", "quaternion", "dihedral:4", "dihedral:6",
             "alternating:4")
    cases = [(f"{s} (n={n})", (group(s), n)) for s in specs for n in (2, 3)]
    return _row("properties", "subgroup-monotonicity", cases,
                "counts inside a centralizer never exceed the ambient counts "
                f"({len(cases)} subgroup/n pairs)", _exceeds_ambient)


def _exceeds_ambient(case) -> bool:
    G, n = case
    center = center_and_derived(G)[0].member_set
    g = next(x for x in range(G.order) if x not in center)
    full = _oracle(G, f"f{n}")
    return any(v > full.at(x) for x, v in brute_f_n(G, n, centralizer(G, g)).items())


def _above_star_gap(G) -> bool:
    f2, f3, t3 = (_oracle(G, c) for c in ("f2", "f3", "t3"))
    reps = conjugacy_classes(G).reps
    return any(f3.values[c] > t3.values[c] - f2.values[c] for c, r in enumerate(reps) if r)


def _m_not_real(G) -> bool:
    """False once every m_chi of G's table is certified real, in one pass
    over the array; `_m_values` raises ValueError on one that is not."""
    T = build_table(G)
    _m_values(G, T.array, T.labels)
    return False


def _theta_tau_differ(G) -> bool:
    # sum_c |c| theta_chi(c) = (sizes @ W_theta) . chi and
    # sum_b tau_chi(b) = (1 @ W_tau) . chi, so on an invertible table the two
    # sums agree for every chi exactly when these integer vectors agree.
    sizes = np.array(conjugacy_classes(G).sizes)
    by_rows = sizes @ G.cached("theta-weights", _aggregated_theta_weights)
    by_cols = G.cached("tau-weights", _tau_weights).sum(axis=0)
    return bool((by_rows != by_cols).any())


def _isoclinic_match(group) -> CheckResult:
    D8, Q8 = group("dihedral:4"), group("quaternion")
    same = True
    details = []
    for label, fn in (
        ("f2", lambda G: f2_coeffs(build_table(G))),
        ("f3", lambda G: f3_coeffs(G)),
        ("t3", lambda G: t_coeffs(G, 3)),
    ):
        a, b = sorted(fn(D8)), sorted(fn(Q8))
        details.append(f"{label} {_vec(a)}")
        same = same and a == b
    return CheckResult(
        "properties",
        "isoclinic-coefficient-match",
        same,
        "dihedral:4 and quaternion share coefficient multisets: "
        + "; ".join(details),
    )


def _gustafson_equality(d8: GroupTable) -> CheckResult:
    p2 = p_n(_oracle(d8, "f2"), 0)
    return CheckResult(
        "properties",
        "gustafson-equality",
        p2 == Fraction(5, 8),
        f"dihedral:4 attains P2(1) = {p2} (want 5/8)",
    )


def _bounds_fail(G) -> str:
    """The names of the failing records, or "" when all hold."""
    report = bounds_report(G, _oracle(G, "f2"), _oracle(G, "f3"))
    return "" if report.all_hold else str([r.name for r in report.failures()])


def _q3_power_paths(groups) -> CheckResult:
    """Q_3^(*k) by class structure constants on the brute f_3 count, and by
    the character formula, which reads no count."""
    cases = [(f"{G.spec} (k={k})", (G, k)) for G in groups for k in range(1, 5)]
    return _row("properties", "q3-power-two-paths", cases,
                "class structure constants on the oracle's f3 = character formula "
                f"for Q3^*k, k = 1..4, on {len(groups)} groups", _q3_powers_differ)


def _q3_powers_differ(case) -> bool:
    G, k = case
    by_classes = convolve_power(q3(_oracle(G, "f3")), k)
    return by_classes != q3_power_by_characters(G, k, build_table(G))


def _ore_sets(group) -> CheckResult:
    S3, S4, S5 = (group(f"symmetric:{n}") for n in (3, 4, 5))
    A5 = group("alternating:5")
    supports = [(G, 3, {i for i, p in enumerate(G.perm_list) if is_even(p)})
                for G in (S3, S4, S5)]
    supports += [(S3, 4, {0}), (S4, 4, {0}), (A5, 2, set(range(A5.order)))]
    cases = [(f"support of f{n} on {G.spec}", (G, n, want)) for G, n, want in supports]
    return _row("properties", "ore-sets", cases,
                "f3 support = alternating subgroup (n = 3, 4, 5); "
                "f4 support = {1} (n = 3, 4); f2 support = whole group on "
                "alternating:5", _ore_set_differs)


def _ore_set_differs(case) -> bool:
    G, n, support = case
    return ore_set(G, n) != support


def _triple_solver() -> CheckResult:
    cases = [(f"{lam} on {n} points", (n, lam)) for n in range(3, 8)
             for lam in partitions_of(n) if sum(part % 2 == 0 for part in lam) % 2 == 0]
    return _row("properties", "triple-solver-class-reps", cases,
                f"solved and re-verified {len(cases)} even class representatives "
                "of symmetric groups, n = 3..7", _triple_fails)


def _triple_fails(case) -> str:
    """The solver's error text, "verification failed", or "" on success."""
    n, lam = case
    g = _canonical_perm(lam, n)
    try:
        x1, x2, x3 = ore_triple_symmetric(n, g)
    except RuntimeError as err:
        return str(err)
    ok = pcomm(x1, x2) == pcomm(x1, x3) == pcomm(x2, x3) == g
    return "" if ok else "verification failed"


def _canonical_perm(lam, n) -> tuple[int, ...]:
    out = list(range(n))
    start = 0
    for part in lam:
        block = list(range(start, start + part))
        for a, b in zip(block, block[1:] + block[:1]):
            out[a] = b
        start += part
    return tuple(out)


def _conjecture_monitor(groups) -> CheckResult:
    violations = []
    for G in groups:
        try:
            records = conjecture_report(G)
        except ValueError as err:
            violations.append(f"{G.spec}: {err}")
            continue
        violations += [f"{G.spec}/{r.label} = {r.value}" for r in records if not r.ok]
    detail = (
        f"every f3 coefficient is a non-negative integer on {len(groups)} groups"
        if not violations
        else "VIOLATIONS (reported, not failed): " + ", ".join(violations)
    )
    return CheckResult("properties", "f3-coefficient-monitor", True, detail)
