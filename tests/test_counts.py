import pytest

from commcount import counts as counts_module
from commcount.chars import build_table
from commcount.counts import (
    BudgetExceededError,
    brute_f_n,
    brute_t_n,
    conjecture_report,
    count_f_n,
    count_t_n,
    f2_coeffs,
    f2_from_characters,
    f3_coeffs,
    f3_from_characters,
    f3_parametrized,
    m_chi,
    naive_f_n,
    ore_set,
    recursive_fn1,
    t_coeffs,
    t_from_characters,
    tau_chi,
    tau_values,
    tc_check_and_formula,
    theta_chi,
    theta_class_function,
)
from commcount.groups import (
    GroupTable,
    center_and_derived,
    centralizer,
    conjugacy_classes,
    make_group,
)
from commcount.distributions import convolve, q3
from commcount.fileio import load_group, save_group
from commcount.perms import is_even
from commcount.triples import combine_disjoint_triples


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
            th = theta_class_function(G, chi)
            for r in range(1, n):
                c = part.class_of[r]
                expected = n * n * chi.values[0] + n * chi.at((2 * r) % n)
                assert th.values[c] == expected
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
    G = make_group("symmetric:4")
    assert count_f_n(G, 3, method="character") == brute_f_n(G, 3)
    assert count_f_n(G, 2, method="auto") == brute_f_n(G, 2)
    assert count_t_n(G, 4, method="character") == brute_t_n(G, 4)
    t16 = count_t_n(G, 16, method="brute")
    assert max(t16.values) > 2**63
    assert count_t_n(G, 16, method="character") == t16
    with pytest.raises(ValueError, match="n = 2 and n = 3"):
        count_f_n(G, 4, method="character")
    with pytest.raises(ValueError, match="unknown method"):
        count_f_n(G, 2, method="guess")

    # no table provider for a plain permutation group: auto falls back
    P = make_group("perm:(1 2 3),(4 5 6)")
    counts = count_f_n(P, 2, method="auto")
    assert counts.at(0) == 81
    assert counts.support() == frozenset({0})


def test_theta_is_conjugation_weighted():
    # sum over irreducibles of theta weights reproduces m_chi additively;
    # spot-check that theta of the trivial character counts pairs:
    # theta_triv(a) = sum_b |C(ab) b intersect C(a)|
    G = make_group("symmetric:3")
    T = build_table(G)
    triv = next(
        chi for chi in T.irreducibles if all(v == 1 for v in chi.values)
    )
    th = theta_class_function(G, triv)
    part = conjugacy_classes(G)
    mul, cents = G.mul, G.centralizer_lists()
    cent_sets = [frozenset(c) for c in cents]
    for c, rep in enumerate(part.reps):
        direct = 0
        for b in range(6):
            ab = mul[rep][b]
            direct += sum(1 for u in cents[ab] if mul[u][b] in cent_sets[rep])
        assert th.values[c] == direct


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
        assert counts_module._pair_weights(G, a).tolist() == H[a], a
    theta = [[0] * k for _ in range(k)]
    tau = [[0] * k for _ in range(G.order)]
    M, inv = G.table, G.inv
    for a in range(G.order):
        for b in range(G.order):
            c = part.class_of[M[M[inv[a], inv[b]], M[a, b]]]
            tau[b][c] += H[a][b]
            if a in part.reps:
                theta[part.reps.index(a)][c] += H[a][b]
    assert counts_module._aggregated_theta_weights(G).tolist() == theta
    assert counts_module._tau_weights(G).tolist() == tau


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
        taus = tau_values(G, chi)
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
    if spec == "cyclic:6":  # a file group: the provider solves for the log
        assert build_table(loaded, "cyclic-closed-form").validated
    assert combine_disjoint_triples(G, (1, 1, 1), (0, 0, 0)) == (1, 1, 1)
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
