import gc
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest

from commcount import chars
from commcount import counts as counts_module
from commcount.chars import (
    CharacterTable,
    ClassFunction,
    TableProviderError,
    build_table,
    decompose,
    load_chartable,
    save_chartable,
)
from commcount.cyclo import Cyclo, CycloArray, NotRationalError, cyclo_root
from commcount.counts import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    brute_f_n,
    brute_t_n,
    conjecture_report,
    count_f_n,
    f2_coeffs,
    f2_from_characters,
    f3_coeffs,
    f3_from_characters,
    m_chi,
    naive_f_n,
    ore_set,
    recursive_fn1,
    t_coeffs,
    t_from_characters,
    tau_chi,
    tc_check_and_formula,
    theta_chi,
)
from commcount.groups import (
    GroupTable,
    SubgroupRef,
    center_and_derived,
    centralizer,
    conjugacy_classes,
    load_group,
    make_group,
    save_group,
)
from commcount.distributions import bounds_report, convolve, p_n, point_mass, q3
from commcount.perms import is_even
from commcount.verify import sweep_specs


def test_a5_f2():
    G = make_group("alternating:5")
    T = build_table(G)
    assert f2_coeffs(T) == (60, 20, 20, 15, 12)
    byformula = f2_from_characters(G, T)
    assert byformula.values == (300, 32, 63, 65, 65)
    assert brute_f_n(G, 2) == byformula
    assert byformula.total() == 60 * 60


def test_a5_f3():
    G = make_group("alternating:5")
    T = build_table(G)
    assert f3_coeffs(G, T) == (40, 64, 64, 84, 112)
    byformula = f3_from_characters(G, T)
    assert byformula.values == (1320, 24, 12, 20, 20)
    assert brute_f_n(G, 3) == byformula


def test_a5_t3():
    G = make_group("alternating:5")
    assert t_coeffs(G, 3) == (300, 260, 260, 285, 324)
    assert brute_t_n(G, 3) == t_from_characters(G, 3)


def test_a5_f4_identity():
    G = make_group("alternating:5")
    assert recursive_fn1(G, 4) == 5820
    assert brute_f_n(G, 4).at(0) == 5820


def test_symmetric_group_base_values():
    S3 = make_group("symmetric:3")
    c3 = brute_f_n(S3, 3)
    assert c3.at(0) == 48
    three_cycle = next(
        g for g, p in enumerate(S3.perm_list) if p == (1, 2, 0)
    )
    assert c3.at(three_cycle) == 6
    assert c3 == f3_from_characters(S3)

    S4 = make_group("symmetric:4")
    c4 = brute_f_n(S4, 3)
    double = next(
        g for g, p in enumerate(S4.perm_list) if p == (1, 0, 3, 2)
    )
    cyc = next(
        g for g, p in enumerate(S4.perm_list) if p == (1, 2, 0, 3)
    )
    assert c4.at(double) == 72
    assert c4.at(cyc) == 12
    assert c4 == f3_from_characters(S4)


def test_t2_equals_f2():
    for spec in ("symmetric:3", "dihedral:4", "quaternion", "alternating:4"):
        G = make_group(spec)
        assert brute_t_n(G, 2) == brute_f_n(G, 2)


def test_a_table_of_another_group_is_refused():
    # Q8 and D4 have tables of the same shape: before the check, f3 on Q8
    # from the D4 table read 24 where brute force gives 48.
    Q, D = make_group("quaternion"), make_group("dihedral:4")
    T = build_table(D)
    calls = [
        lambda: f2_from_characters(Q, T),
        lambda: f3_coeffs(Q, T),
        lambda: f3_from_characters(Q, T),
        lambda: conjecture_report(Q, T),
        lambda: t_coeffs(Q, 3, T),
        lambda: t_from_characters(Q, 3, T),
        lambda: t_coeffs(D, 3, build_table(make_group("cyclic:5"))),
        lambda: bounds_report(Q, T=T),
    ]
    for spec in ("quaternion", "cyclic:5"):
        f = build_table(make_group(spec)).irreducibles[0]
        calls.append(lambda f=f: decompose(f, T))
    for call in calls:
        with pytest.raises(ValueError, match="different group"):
            call()
    assert f3_from_characters(Q, build_table(Q)) == brute_f_n(Q, 3)


def test_q8_f2_includes_zero_classes():
    G = make_group("quaternion")
    counts = f2_from_characters(G)
    assert counts.values == (40, 0, 0, 0, 24)
    assert brute_f_n(G, 2) == counts
    assert counts.support() == frozenset({0, 4})


def test_theta_dihedral_closed_form():
    # theta_chi(a^r) = n^2 chi(1) + n chi(a^2r) on non-trivial rotations
    for n in (5, 7):
        G = make_group(f"dihedral:{n}")
        T = build_table(G)
        part = conjugacy_classes(G)
        for chi in T.irreducibles:
            for r in range(1, n):
                c = part.class_of[r]
                expected = n * n * chi.values[0] + n * chi.at((2 * r) % n)
                assert theta_chi(G, chi, part.reps[c]) == expected
                assert theta_chi(G, chi, r) == expected

    D10 = make_group("dihedral:5")
    T10 = build_table(D10)
    assert theta_chi(D10, T10.irreducibles[0], 0) == 40
    assert m_chi(D10, T10.irreducibles[0]).to_rational() == 200
    assert f3_coeffs(D10) == (20, 20, 30, 30)


def test_theta_at_identity_counts_commuting_pairs():
    # theta_chi(1) = chi(1) * sum_b |C(b)| = chi(1) * k(G) * |G|
    for spec in ("dihedral:5", "symmetric:4", "quaternion"):
        G = make_group(spec)
        T = build_table(G)
        pairs = sum(len(c) for c in G.centralizer_lists())
        assert pairs == len(conjugacy_classes(G)) * G.order
        for chi in T.irreducibles:
            assert theta_chi(G, chi, 0) == pairs * chi.values[0]


def test_d10_t3_identity():
    G = make_group("dihedral:5")
    cents = G.centralizer_lists()
    assert brute_t_n(G, 3).at(0) == sum(len(c) ** 2 for c in cents) == 220


def test_theta_m_chi_against_f3_coeffs():
    G = make_group("alternating:5")
    T = build_table(G)
    for chi, coeff in zip(T.irreducibles, (40, 64, 64, 84, 112)):
        assert m_chi(G, chi).to_rational() == 60 * coeff


def test_conjecture_report_a5():
    G = make_group("alternating:5")
    records = conjecture_report(G)
    assert all(r.ok for r in records)
    assert [int(r.value) for r in records] == [40, 64, 64, 84, 112]


def test_conjecture_report_small_sweep():
    for spec in ("symmetric:3", "symmetric:4", "alternating:4", "quaternion",
                 "dihedral:4", "dihedral:5", "dihedral:6", "cyclic:8"):
        G = make_group(spec)
        assert all(r.ok for r in conjecture_report(G)), spec


# -- certification: what fails, and where ------------------------------------------


def _crafted_table(spec, edits):
    """The table of spec with each row i in `edits` replaced by
    edits[i](old row), not validated, so that the certificates themselves
    must catch it."""
    G = make_group(spec)
    T = build_table(G)
    rows = [list(chi.values) for chi in T.irreducibles]
    for i, edit in edits.items():
        rows[i] = edit(rows[i])
    X = CycloArray.of(rows, T.array.conductor)
    return G, CharacterTable(G, X, T.degrees, T.labels, "crafted")


def _raised(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize(
    "spec, coeffs, kind, n, message",
    [
        ("symmetric:3", (0, 0, Fraction(1, 2)), "f", 3,
         "f_3 at class 2 is not an integer: -1/2"),
        ("symmetric:3", (1, 0, 0), "f", 3, "f_3 at class 1 is negative: -1"),
        ("dihedral:5", (0, 0, Fraction(1, 2), 0), "t", 4,
         "t_4 at class 1 is irrational: -1/2-1/2*E(5)^2-1/2*E(5)^3"),
        ("dihedral:5", (1, 1, Fraction(-1, 2), 3), "f", 2,
         "f_2 at class 1 is irrational: 5/2+7/2*E(5)^2+7/2*E(5)^3"),
        ("cyclic:4", (Fraction(1, 3), Fraction(1, 3), 0, 0), "f", 3,
         "f_3 at class 0 is not an integer: 2/3"),
    ],
)
def test_certified_counts_name_the_first_failing_class(spec, coeffs, kind, n, message):
    G = make_group(spec)
    T = build_table(G)
    got = _raised(lambda: counts_module._certified_counts(G, T, coeffs, kind, n))
    assert got == message


def test_certified_counts_are_python_ints():
    G = make_group("dihedral:5")
    coeffs = (Fraction(3, 2), Fraction(1, 2), 1, 1)
    counts = counts_module._certified_counts(G, build_table(G), coeffs, "f", 2)
    assert counts.values == (6, 1, 1, 1)
    assert all(type(v) is int for v in counts.values)


def test_formula_certificates_name_what_fails():
    z = cyclo_root(5)
    G, T = _crafted_table("dihedral:5", {2: lambda r: [v * z for v in r]})
    assert _raised(lambda: f3_coeffs(G, T)) == (
        "m_psi1 is not real (300*E(5)); table is inconsistent"
    )
    G, T = _crafted_table(
        "dihedral:5", {0: lambda r: [v + z + z**4 if i else v for i, v in enumerate(r)]}
    )
    assert _raised(lambda: f3_coeffs(G, T)) == (
        "m_chi1 is irrational (160-40*E(5)^2-40*E(5)^3); the f_3 expansion has "
        "no rational coefficient here"
    )
    assert _raised(lambda: t_coeffs(G, 3, T)) == (
        "t_3 coefficient for chi1 is irrational (40-30*E(5)^2-30*E(5)^3); "
        "table is inconsistent"
    )
    assert [(r.label, r.value, r.is_rational, r.is_integer, r.is_nonnegative)
            for r in conjecture_report(G, T)] == [
        ("chi1", "16-4*E(5)^2-4*E(5)^3", False, False, False),
        ("chi2", "20", True, True, True),
        ("psi1", "30", True, True, True),
        ("psi2", "30", True, True, True),
    ]
    G, T = _crafted_table(
        "symmetric:3", {2: lambda r: [r[0], Cyclo.rational(-2), r[2] * 3]}
    )
    assert _raised(lambda: t_coeffs(G, 2, T)) == (
        "multiplicity of (2,1) in theta^0*(2,1) is 17/3, not a non-negative "
        "integer; table is inconsistent"
    )
    G, T = _crafted_table(
        "symmetric:3", {0: lambda r: [-v for v in r], 1: lambda r: [v / 7 for v in r]}
    )
    assert [(r.label, r.value, r.is_rational, r.is_integer, r.is_nonnegative)
            for r in conjecture_report(G, T)] == [
        ("(1,1,1)", "-10", True, True, False),
        ("(3)", "10/7", True, False, True),
        ("(2,1)", "14", True, True, True),
    ]


def test_decompose_refuses_an_irrational_multiplicity():
    G = make_group("dihedral:5")
    z = cyclo_root(5)
    f = ClassFunction(G, (Cyclo.rational(1), z, Cyclo.rational(1), Cyclo.rational(0)))
    with pytest.raises(NotRationalError) as exc:
        decompose(f, build_table(G))
    assert str(exc.value) == "not a rational number: 3/10+1/5*E(5)"
    f = ClassFunction(G, (Cyclo.rational(-5), Cyclo.rational(3), Cyclo.rational(3),
                          Cyclo.rational(1)))
    assert decompose(f, build_table(G)) == (
        Fraction(6, 5), Fraction(1, 5), Fraction(-8, 5), Fraction(-8, 5)
    )


def test_recursion_matches_brute():
    for spec in ("symmetric:3", "dihedral:4", "quaternion", "alternating:4",
                 "cyclic:6"):
        G = make_group(spec)
        for n in (2, 3, 4):
            assert recursive_fn1(G, n) == brute_f_n(G, n).at(0), (spec, n)


def test_subgroup_restriction():
    S4 = make_group("symmetric:4")
    double = next(
        g for g, p in enumerate(S4.perm_list) if p == (1, 0, 3, 2)
    )
    H = centralizer(S4, double)
    assert len(H) == 8
    sub = brute_f_n(S4, 3, H)
    # C((12)(34)) in Sym(4) is dihedral of order 8
    D4 = make_group("dihedral:4")
    assert sub[0] == brute_f_n(D4, 3).at(0) == 4**3 + 28 * 4

    other = make_group("symmetric:3")
    with pytest.raises(ValueError, match="different group"):
        brute_f_n(other, 2, H)


def test_budget_guard():
    G = make_group("cyclic:24")
    with pytest.raises(BudgetExceededError) as exc:
        brute_f_n(G, 7)
    assert exc.value.projected == 24**7
    with pytest.raises(BudgetExceededError):
        brute_f_n(make_group("alternating:5"), 5, budget=10**6)


def test_ore_sets():
    for spec in ("symmetric:3", "symmetric:4"):
        G = make_group(spec)
        even = frozenset(g for g, p in enumerate(G.perm_list) if is_even(p))
        assert ore_set(G, 3) == even
        assert ore_set(G, 4) == frozenset({0})
    A5 = make_group("alternating:5")
    assert ore_set(A5, 2) == frozenset(range(60))


def test_count_dispatch():
    # count_f_n: the character formula at n = 2 and 3, brute force beyond
    G = make_group("symmetric:4")
    for n in (2, 3, 4):
        assert count_f_n(G, n) == brute_f_n(G, n)
    assert f3_from_characters(G) == brute_f_n(G, 3)
    assert t_from_characters(G, 4) == brute_t_n(G, 4)
    t16 = brute_t_n(G, 16)
    assert max(t16.values) > 2**63
    assert t_from_characters(G, 16) == t16

    # no table provider for a plain permutation group: count_f_n falls back
    P = make_group("perm:(1 2 3),(4 5 6)")
    counts = count_f_n(P, 2)
    assert counts.at(0) == 81
    assert counts.support() == frozenset({0})

    # a table over the size cap is refused, and count_f_n answers by brute force
    C = make_group("cyclic:420")
    with pytest.raises(TableProviderError, match="cap"):
        f3_from_characters(C)
    assert count_f_n(C, 3) == brute_f_n(C, 3)


def test_f3_coeffs_keeps_no_loaded_table_alive(tmp_path):
    G = make_group("alternating:5")
    path = tmp_path / "a5.json"
    save_chartable(build_table(G), path)
    T = load_chartable(path, G)
    assert f3_coeffs(G, T) == (40, 64, 64, 84, 112)
    loaded = weakref.ref(T)
    del T
    gc.collect()
    assert loaded() is None


def _f2_by_class_pairs(G):
    """f_2 with no character table.  [x, y] = x^-1 x^y, and x^y runs over
    the class c of x, each member |C(x)| times; x^-1 runs over the inverse
    class c^-1, so summed over the class of g,
    f_2(g) = sum over c of |C(r_c)| * |c^-1| * m[c^-1, c, [g]] / |[g]|,
    with m[a, b, c] = #{y in class b : r_a * y in class c}."""
    part = conjugacy_classes(G)
    k, sizes = len(part), np.array(part.sizes)
    inverse = np.array(part.class_of)[G.inv[np.array(part.reps)]]
    ab, c, m = chars._class_pair_counts(G, part)
    a, b = np.divmod(ab, k)
    keep = a == inverse[b]
    sums = np.zeros(k, dtype=np.int64)  # at most |G|^2 pairs in all
    np.add.at(sums, c[keep], (G.order // sizes[b] * sizes[a] * m)[keep])
    assert (sums % sizes == 0).all()
    return tuple((sums // sizes).tolist())


@pytest.mark.parametrize(
    "spec",
    sweep_specs() + (
        "symmetric:6", "symmetric:7", "alternating:6", "alternating:7",
        "product:symmetric:4,dihedral:10", "perm:(1 2 3 4 5 6 7),(1 2)(3 6)",
    ),
)
def test_brute_f2_matches_a_table_free_class_pair_oracle(spec, shared_group):
    G = shared_group(spec)
    assert _f2_by_class_pairs(G) == brute_f_n(G, 2).values


def test_theta_is_conjugation_weighted():
    # sum over irreducibles of theta weights reproduces m_chi additively;
    # spot-check that theta of the trivial character counts pairs:
    # theta_triv(a) = sum_b |C(ab) b intersect C(a)|
    G = make_group("symmetric:3")
    T = build_table(G)
    triv = next(
        chi for chi in T.irreducibles if all(v == 1 for v in chi.values)
    )
    part = conjugacy_classes(G)
    mul, cents = G.mul, G.centralizer_lists()
    cent_sets = [frozenset(c) for c in cents]
    for c, rep in enumerate(part.reps):
        direct = 0
        for b in range(6):
            ab = mul[rep][b]
            direct += sum(1 for u in cents[ab] if mul[u][b] in cent_sets[rep])
        assert theta_chi(G, triv, rep) == direct


def test_f5_small_group():
    G = make_group("quaternion")
    counts = brute_f_n(G, 5)
    assert counts.at(0) == recursive_fn1(G, 5)
    assert counts.total() == sum(
        v * s for v, s in zip(
            counts.values, conjugacy_classes(G).sizes
        )
    )


def test_naive_enumeration_matches_pruned_search():
    for spec in ("symmetric:3", "dihedral:4", "quaternion", "cyclic:6"):
        G = make_group(spec)
        for n in (2, 3, 4):
            assert naive_f_n(G, n) == brute_f_n(G, n), (spec, n)
    for spec, n in (("dihedral:12", 4), ("dihedral:20", 4), ("quaternion", 5)):
        G = make_group(spec)
        assert naive_f_n(G, n) == brute_f_n(G, n), (spec, n)
    # from n = 6 on, a head of n - 3 entries has pairs whose commutators
    # can disagree, and the oracle skips those heads
    for spec in ("symmetric:3", "dihedral:3", "dihedral:4", "quaternion"):
        G = make_group(spec)
        for n in (6, 7):
            assert naive_f_n(G, n) == brute_f_n(G, n), (spec, n)


def pair_weights(G, a):
    """H[b] = |C(ab) b  intersect  C(a)| for every b: the one row of
    `_pair_weight_rows` at a, read at x = ab."""
    (_, R), = counts_module._pair_weight_rows(G, np.array([a]))
    return R[0, G.table[a]]


def f3_parametrized(G, budget=DEFAULT_BUDGET):
    """f_3 via the coset parametrization, an oracle for the searches: for
    each pair (c, z) with [c, z] = g, count x with x in C(cz)z and x in
    C(c).  The work is the k(G) * |G|^2 pair-weight terms."""
    counts_module._check_budget(len(conjugacy_classes(G)) * G.order**2, budget)
    counts = np.zeros(G.order, dtype=np.int64)
    for c in range(G.order):
        np.add.at(counts, G.comm_row(c), pair_weights(G, c))
    return counts_module._as_class_counts(G, counts.tolist(), "f", 3)


def test_f3_parametrized_matches_brute():
    for spec in ("symmetric:3", "dihedral:4", "quaternion", "symmetric:4",
                 "alternating:5"):
        G = make_group(spec)
        assert f3_parametrized(G) == brute_f_n(G, 3), spec


def test_f3_parametrized_budget_projects_pair_weight_terms():
    G = make_group("symmetric:4")
    # sum over (a, b) of |C(ab)| = k(G) * |G|^2 pair-weight terms
    work = len(conjugacy_classes(G)) * G.order**2
    assert work == G.order * int(G.commuting().sum())
    assert f3_parametrized(G, budget=work) == brute_f_n(G, 3)
    with pytest.raises(BudgetExceededError) as exc:
        f3_parametrized(G, budget=work - 1)
    assert exc.value.projected == work


def _budget_cases():
    for spec in ("symmetric:4", "quaternion", "dihedral:6"):
        yield make_group(spec), None
    S4 = make_group("symmetric:4")
    yield S4, centralizer(S4, S4.perm_list.index((1, 0, 3, 2)))


def test_brute_budget_projects_candidate_tuples():
    # Given (x1, x2), each of x3..xn ranges over the coset C_H(x1) * x2, so
    # the search visits |H| * sum over x in H of |C_H(x)|^(n-2) tuples.
    for G, H in _budget_cases():
        members = range(G.order) if H is None else H.members
        M = G.table
        for n in (2, 3, 4):
            work = len(members) * sum(
                sum(1 for y in members if M[x, y] == M[y, x]) ** (n - 2)
                for x in members
            )
            if n == 3 and H is None:
                assert work == len(conjugacy_classes(G)) * G.order**2
            assert brute_f_n(G, n, H, budget=work) == brute_f_n(G, n, H)
            with pytest.raises(BudgetExceededError) as exc:
                brute_f_n(G, n, H, budget=work - 1)
            assert exc.value.projected == work, (G.spec, H, n)


def _pair_weights_by_definition(G):
    """H[a][b] = |C(ab) b  intersect  C(a)|, by a loop over C(ab)."""
    n, mul = G.order, G.mul
    cents = [{y for y in range(n) if mul[x][y] == mul[y][x]} for x in range(n)]
    return [
        [sum(1 for u in cents[mul[a][b]] if mul[u][b] in cents[a]) for b in range(n)]
        for a in range(n)
    ]


@pytest.mark.parametrize(
    "spec",
    ["symmetric:4", "dihedral:6", "quaternion", "perm:(1 2 3 4 5),(2 5)(3 4)",
     "product:quaternion,cyclic:3"],
)
def test_pair_weights_match_definition(spec):
    G = make_group(spec)
    part = conjugacy_classes(G)
    k = len(part)
    H = _pair_weights_by_definition(G)
    for a in range(G.order):
        assert pair_weights(G, a).tolist() == H[a], a
    theta = [[0] * k for _ in range(k)]
    tau = [[0] * k for _ in range(G.order)]
    M, inv = G.table, G.inv
    for a in range(G.order):
        for b in range(G.order):
            c = part.class_of[M[M[inv[a], inv[b]], M[a, b]]]
            tau[b][c] += H[a][b]
            if a in part.reps:
                theta[part.reps.index(a)][c] += H[a][b]
    assert counts_module._class_weights(G).tolist() == theta
    # tau, summed over every a, is constant on classes: its rows at the reps
    # are all of it
    assert all(tau[b] == tau[part.reps[part.class_of[b]]] for b in range(G.order))
    assert counts_module._class_weights(G, tau=True).tolist() == [tau[r] for r in part.reps]


def test_pair_weight_kernel_runs_on_the_class_reps(monkeypatch):
    # theta and tau each read the commuting pairs once per class rep: k fixed
    # elements per side, whatever theta_chi, tau_chi and m_chi are asked
    G = make_group("symmetric:5")
    T = build_table(G)
    kernel, seen = counts_module._pair_weight_rows, []

    def counted(G, fixed, tau=False):
        seen.append((tau, len(fixed)))
        return kernel(G, fixed, tau)

    monkeypatch.setattr(counts_module, "_pair_weight_rows", counted)
    for chi in T.irreducibles:
        for g in range(G.order):
            theta_chi(G, chi, g), tau_chi(G, chi, g)
        m_chi(G, chi)
    k = len(conjugacy_classes(G))
    assert seen == [(False, k), (True, k)]
    assert counts_module._class_weights(G, tau=True).shape == (k, k)


# Element indices are int16; the pair-weight kernel's flat positions u * n + b
# and a * n + u * b pass 2^15 once n does.  The references below read the
# table by 2-D gathers with int64 indices only.


def _pair_weights_int64(G, a, K):
    """H[a, b] = |C(ab) b  intersect  C(a)| for every b, as int64, in blocks
    of 256 columns b: the u with u in C(ab) and u * b in C(a)."""
    n = G.order
    H = np.empty(n, dtype=np.int64)
    for lo in range(0, n, 256):
        b = np.arange(lo, min(lo + 256, n))
        H[b] = (K[G.table[a, b]].T & K[a][G.table[:, b]]).sum(axis=0, dtype=np.int64)
    return H


def _pair_weight_column_int64(G, b, K):
    """H[a, b] for every a, as int64, in blocks of 256 rows a."""
    n = G.order
    H = np.empty(n, dtype=np.int64)
    ub = G.table[:, b].astype(np.int64)  # u * b for every u
    for lo in range(0, n, 256):
        a = np.arange(lo, min(lo + 256, n))
        ab = G.table[a, b].astype(np.int64)
        H[a] = np.count_nonzero(K[ab] & K[a][:, ub], axis=1)
    return H


def _comm_classes_int64(G, a, b):
    """The class of [a, b] through int64 indices, a or b an index array."""
    inv = G.inv.astype(np.int64)
    left = G.table[inv[a], inv[b]].astype(np.int64)
    comm = G.table[left, G.table[a, b].astype(np.int64)]
    return np.array(conjugacy_classes(G).class_of)[comm]


def _tau_row_int64(G, b, K):
    """The pair weights H[a, b] over every a, tallied by the class of [a, b]."""
    row = np.zeros(len(conjugacy_classes(G)), dtype=np.int64)
    every = np.arange(G.order)
    np.add.at(row, _comm_classes_int64(G, every, b), _pair_weight_column_int64(G, b, K))
    return row


@pytest.mark.parametrize(
    "spec", ["symmetric:7", "dihedral:300", "cyclic:240", "product:cyclic:16,cyclic:16"]
)
def test_pair_weight_rows_past_int16_match_an_int64_reference(spec, shared_group):
    # u * n reaches n^2 - n: 25.4 million on symmetric:7, past 2^15 on each
    G = shared_group(spec)
    n = G.order
    K = G.table == G.table.T
    picks = np.unique([1, n - 1, *np.random.default_rng(n).integers(0, n, 1)])
    rows = [R for _, R in counts_module._pair_weight_rows(G, picks)]
    for a, R in zip(picks, np.concatenate(rows)):
        assert np.array_equal(R[G.table[a]], _pair_weights_int64(G, a, K)), a


@pytest.mark.parametrize(
    "spec", ["symmetric:7", "dihedral:300", "cyclic:240", "product:cyclic:16,cyclic:16"]
)
def test_tau_weights_past_int16_match_an_int64_reference(spec, shared_group):
    # the column kernel reads u * n + b and a * n + u * b, each up to n^2 - 1
    G = shared_group(spec)
    n = G.order
    K = G.table == G.table.T
    picks = np.unique([1, n - 1, *np.random.default_rng(n).integers(0, n, 1)])
    columns = [R for _, R in counts_module._pair_weight_rows(G, picks, tau=True)]
    for b, R in zip(picks, np.concatenate(columns)):
        # R[x] is H[a, b] at x = ab
        assert np.array_equal(R[G.table[:, b]], _pair_weight_column_int64(G, b, K)), b
    want = [_tau_row_int64(G, r, K) for r in conjugacy_classes(G).reps]
    assert np.array_equal(counts_module._class_weights(G, tau=True), want)


def test_tau_weights_at_the_cap_tally_sampled_rows(shared_group):
    # tau on symmetric:7 is tallied at the 15 class reps only; the columns of
    # elements that are not reps, summed over all 5040 a, give their class's row
    G = shared_group("symmetric:7")
    part = conjugacy_classes(G)
    K = G.table == G.table.T
    W = counts_module._class_weights(G, tau=True)
    others = [b for b in np.random.default_rng(7).integers(0, G.order, 3) if b not in part.reps]
    assert others
    for b in others:
        assert np.array_equal(_tau_row_int64(G, b, K), W[part.class_of[b]]), b


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:6"])
def test_library_reads_the_commuting_matrix(spec, monkeypatch):
    # Per-element centralizer tuples cost n * |C(x)| Python ints; no library
    # path may need them.
    def refuse(self):
        raise AssertionError("centralizer_lists called")

    monkeypatch.setattr(GroupTable, "centralizer_lists", refuse)
    G = make_group(spec)
    T = build_table(G)
    everything = range(G.order)
    assert center_and_derived(G)[0].members == tuple(
        x for x in everything if all(G.m(x, y) == G.m(y, x) for y in everything)
    )
    assert centralizer(G, 1).members == tuple(
        y for y in everything if G.m(1, y) == G.m(y, 1)
    )
    f3 = f3_from_characters(G, T)
    for chi in T.irreducibles:
        taus = [tau_chi(G, chi, b) for b in range(G.order)]
        assert sum(taus[1:], taus[0]) == m_chi(G, chi)
    assert f3_parametrized(G) == f3
    assert brute_t_n(G, 3) == t_from_characters(G, 3, T)
    assert recursive_fn1(G, 3) == f3.at(0)
    ok, value = tc_check_and_formula(G, 3)
    assert ok == (spec == "dihedral:6")
    assert value == (f3.at(0) if ok else None)


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:6", "cyclic:6"])
def test_library_reads_one_table(spec, monkeypatch, tmp_path):
    # G.table is the one table; the scalar accessors and the per-element
    # centralizer tuples stay only for the benchmark.
    def refuse(*args):
        raise AssertionError("scalar accessor called")

    monkeypatch.setattr(GroupTable, "m", refuse)
    monkeypatch.setattr(GroupTable, "mul", property(refuse))
    monkeypatch.setattr(GroupTable, "centralizer_lists", refuse)
    G = make_group(spec)
    M = G.table
    f3 = brute_f_n(G, 3)
    assert naive_f_n(G, 3) == f3 == f3_from_characters(G)
    assert naive_f_n(G, 2) == brute_f_n(G, 2) == f2_from_characters(G)
    assert brute_t_n(G, 3) == t_from_characters(G, 3)
    H = centralizer(G, 1)
    assert all(0 < v <= f3.at(g) for g, v in brute_f_n(G, 3, H).items())
    Z, _ = center_and_derived(G)
    assert Z.members == tuple(x for x in range(G.order) if (M[x] == M[:, x]).all())
    d = q3(f3)
    assert sum(convolve(d, d).mass) == 1
    path = tmp_path / "group.json"
    save_group(G, str(path))
    loaded = load_group(str(path))
    assert loaded.table.tolist() == M.tolist()
    if spec == "cyclic:6":  # a file group: the cyclic closed form solves for the log
        T = build_table(loaded)
        assert T.validated and T.provenance == "cyclic-closed-form"
    assert build_table(make_group(f"product:{spec},cyclic:2")).validated


def test_solution_swap_bijection():
    # (x, y, z) -> (x, z, y) maps triples with [x,y]=[x,z]=[y,z]=g onto
    # triples with [x,y]=[x,z]=[z,y]=g, so both systems have f_3(g) counts
    for spec in ("symmetric:3", "dihedral:4", "quaternion"):
        G = make_group(spec)
        ct = G.comm_table()
        rng = range(G.order)
        variant = {}
        for x in rng:
            for y in rng:
                g = ct[x][y]
                variant[g] = variant.get(g, 0) + sum(
                    1 for z in rng if ct[x][z] == g and ct[z][y] == g
                )
        f3 = brute_f_n(G, 3)
        for g in rng:
            assert variant.get(g, 0) == f3.at(g), (spec, g)


@pytest.mark.parametrize("bad", [-1, 6, 1.5])
@pytest.mark.parametrize(
    "accessor",
    ["ClassCounts.at", "ClassFunction.at", "GroupDistribution.at on classes",
     "GroupDistribution.at on elements", "point_mass", "p_n", "theta_chi", "tau_chi"],
)
def test_element_accessors_refuse_other_indices(accessor, bad):
    # symmetric:3 has the elements 0..5: a tuple index -1 would read element 5
    # and 6 would raise IndexError
    G = make_group("symmetric:3")
    chi = build_table(G).irreducibles[1]
    f3 = brute_f_n(G, 3)
    call = {
        "ClassCounts.at": f3.at,
        "ClassFunction.at": chi.at,
        "GroupDistribution.at on classes": q3(f3).at,
        "GroupDistribution.at on elements": point_mass(G).at,
        "point_mass": lambda g: point_mass(G, g),
        "p_n": lambda g: p_n(f3, g),
        "theta_chi": lambda g: theta_chi(G, chi, g),
        "tau_chi": lambda g: tau_chi(G, chi, g),
    }[accessor]
    call(G.order - 1)
    with pytest.raises(ValueError, match="element index"):
        call(bad)


def test_tau_properties():
    D5 = make_group("dihedral:5")
    T = build_table(D5)
    inv = D5.inv
    part = conjugacy_classes(D5)
    for chi in T.irreducibles:
        taus = [tau_chi(D5, chi, b) for b in range(D5.order)]
        # tau is a class function with tau(b^-1) = conjugate of tau(b)
        for b in range(D5.order):
            assert taus[b] == taus[part.reps[part.class_of[b]]]
            assert taus[inv[b]] == taus[b].conj()
        # summing tau over b gives m_chi, same as summing theta over a
        total = sum(taus[1:], taus[0])
        assert total == m_chi(D5, chi)

    C2 = make_group("cyclic:2")
    triv = build_table(C2).irreducibles[0]
    assert tau_chi(C2, triv, 0).to_rational() == 4
    assert tau_chi(C2, triv, 1).to_rational() == 4


def test_tuple_conjugation_formula():
    # groups whose non-central elements all have abelian centralizers
    # admit the closed recursion for f_n(1)
    A5 = make_group("alternating:5")
    ok, value = tc_check_and_formula(A5, 3)
    assert ok and value == 1320
    assert tc_check_and_formula(A5, 4) == (True, 5820)
    assert tc_check_and_formula(A5, 2) == (True, 300)

    D5 = make_group("dihedral:5")
    ok, value = tc_check_and_formula(D5, 3)
    assert ok and value == brute_f_n(D5, 3).at(0) == 5**3 + 7 * 5

    assert tc_check_and_formula(make_group("symmetric:4"), 3) == (False, None)


def test_subgroup_counts_grow_with_the_subgroup():
    # a chain H <= K <= G gives pointwise f_n(H) <= f_n(K) <= f_n(G)
    S4 = make_group("symmetric:4")
    double = next(
        g for g, p in enumerate(S4.perm_list) if p == (1, 0, 3, 2)
    )
    H = centralizer(S4, double)
    for n in (2, 3, 4):
        small = brute_f_n(S4, n, H)
        big = brute_f_n(S4, n)
        assert all(small.values()), (n, small)  # zero values are omitted
        for g, c in small.items():
            assert c <= big.at(g)


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:6"])
def test_coset_candidate_identity(spec):
    # For y = c*x2: [x2, y] = [x1, x2] exactly when [c, x2] = [x1, x2^-1],
    # the row compare brute_f_n runs; checked on every triple (x1, x2, c).
    G = make_group(spec)
    M, inv = G.table, G.inv

    def comm(x, y):
        return M[M[inv[x], inv[y]], M[x, y]]

    x1, x2, c = np.indices((G.order,) * 3)
    lhs = comm(x2, M[c, x2]) == comm(x1, x2)
    rhs = comm(c, x2) == comm(x1, inv[x2])
    assert (lhs == rhs).all()


# The character table of A6 (ATLAS), in the canonical class order of
# alternating:6: 1, (3 4)(5 6), (4 5 6), (1 2 3)(4 5 6), (1 2)(3 4 5 6) and
# the two classes of 5-cycles.  No built-in provider covers A6.
_A6_TABLE = {
    "group_order": 360,
    "class_sizes": [1, 45, 40, 40, 90, 72, 72],
    "class_rep_orders": [1, 2, 3, 3, 4, 5, 5],
    "irreducibles": [
        ["1", "1", "1", "1", "1", "1", "1"],
        ["5", "1", "2", "-1", "-1", "0", "0"],
        ["5", "1", "-1", "2", "-1", "0", "0"],
        ["8", "0", "-1", "-1", "0", "-E(5)-E(5)^4", "-E(5)^2-E(5)^3"],
        ["8", "0", "-1", "-1", "0", "-E(5)^2-E(5)^3", "-E(5)-E(5)^4"],
        ["9", "1", "0", "0", "1", "-1", "-1"],
        ["10", "-2", "1", "1", "0", "0", "0"],
    ],
}


def test_brute_f3_matches_characters_on_larger_groups(tmp_path):
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(_A6_TABLE))
    A6 = make_group("alternating:6")
    T = load_chartable(str(path), A6)  # fully validated on load
    assert brute_f_n(A6, 3) == f3_from_characters(A6, T)
    G = make_group("product:alternating:5,cyclic:5")
    assert brute_f_n(G, 3) == f3_from_characters(G)


def test_per_element_search_is_constant_on_classes_and_equals_the_class_reps():
    # H = G runs the search over every first entry x1; the class reps must
    # give the same values, and those must be constant on every class.
    for spec in sweep_specs():
        G = make_group(spec)
        part = conjugacy_classes(G)
        whole = SubgroupRef(G, tuple(range(G.order)))
        for n in (2, 3, 4, 5):
            per_element = brute_f_n(G, n, whole)
            values = [per_element.get(g, 0) for g in range(G.order)]
            for cls in part.classes:
                assert len({values[g] for g in cls}) == 1, (spec, n, cls)
            want = tuple(values[r] for r in part.reps)
            assert brute_f_n(G, n).values == want, (spec, n)


def test_brute_f4_values_are_pinned():
    # the values of the per-element search the class-rep search replaced;
    # f4 vanishes off the identity on both, and f4(1) counts the pairwise
    # commuting 4-tuples
    S6, A6 = make_group("symmetric:6"), make_group("alternating:6")
    assert brute_f_n(S6, 4).values == (516240,) + (0,) * 10
    assert brute_f_n(A6, 4).values == (105840,) + (0,) * 6
    assert recursive_fn1(A6, 4) == 105840


@pytest.mark.parametrize(
    "spec, n, want",
    [
        ("symmetric:6", 3, 66240),
        ("alternating:6", 3, 15840),
        ("product:alternating:5,cyclic:5", 3, 165000),
        ("product:symmetric:4,dihedral:10", 3, 645120),
        ("dihedral:100", 3, 1002800),
        ("symmetric:5", 4, 24720),
    ],
)
def test_recursive_fn1_values_are_pinned(spec, n, want):
    assert recursive_fn1(make_group(spec), n) == want


def test_brute_f3_matches_characters_on_symmetric_7(shared_group):
    G = shared_group("symmetric:7")
    assert brute_f_n(G, 3) == f3_from_characters(G)


def test_a_class_sum_off_a_multiple_of_the_class_size_is_refused(monkeypatch):
    sums = counts_module._class_sums

    def off_by_one(G, n):
        return [s + (c == 1) for c, s in enumerate(sums(G, n))]

    monkeypatch.setattr(counts_module, "_class_sums", off_by_one)
    with pytest.raises(RuntimeError, match="not a multiple of its size 6"):
        brute_f_n(make_group("symmetric:4"), 3)


def test_t_from_characters_with_weights_beyond_int64():
    # at n = 16 the weights |c| * |C(g_c)|^14 reach 200^14 > 2^63 on
    # dihedral:100, while the entries stay small: the contraction splits the
    # weights into int64 digits
    G = make_group("dihedral:100")
    assert G.order ** 14 > 2**63
    assert t_from_characters(G, 16) == brute_t_n(G, 16)
    assert t_coeffs(G, 16)[0] == sum(
        s * (G.order // s) ** 14 for s in conjugacy_classes(G).sizes
    )
