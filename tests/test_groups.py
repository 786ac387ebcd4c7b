from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from commcount import groups, perms, verify
from commcount.fileio import save_group
from commcount.groups import (
    GroupLawError,
    GroupSpecError,
    GroupTable,
    SubgroupRef,
    _table_from_perms,
    center_and_derived,
    centralizer,
    conjugacy_classes,
    make_group,
    subgroup_generated,
)


# -- permutation helpers -----------------------------------------------------


def test_parse_format_cycles():
    p = perms.parse_cycles("(1 2 3)(4 5)")
    assert p == (1, 2, 0, 4, 3)
    assert perms.format_cycles(p) == "(1 2 3)(4 5)"
    assert perms.parse_cycles("()", 4) == (0, 1, 2, 3)
    assert perms.format_cycles((0, 1, 2)) == "()"
    assert perms.parse_cycles("(1,2,3)") == (1, 2, 0)
    for bad in ("", "(1 2", "(0 1)", "(1 1)", "(1 2)(2 3)"):
        with pytest.raises(ValueError):
            perms.parse_cycles(bad)


def test_mul_inv_comm():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 8)
        p = tuple(rng.sample(range(n), n))
        q = tuple(rng.sample(range(n), n))
        assert perms.pmul(p, perms.pinv(p)) == perms.identity(n)
        assert perms.pinv(perms.pmul(p, q)) == perms.pmul(perms.pinv(q), perms.pinv(p))
        assert perms.pcomm(p, q) == perms.pmul(
            perms.pmul(perms.pinv(p), perms.pinv(q)), perms.pmul(p, q)
        )


def test_cycle_type_and_parity():
    assert perms.cycle_type(perms.parse_cycles("(1 2 3)(4 5)", 6)) == (3, 2, 1)
    assert perms.is_even(perms.parse_cycles("(1 2 3)", 3))
    assert not perms.is_even(perms.parse_cycles("(1 2)", 2))
    assert perms.is_even(perms.parse_cycles("(1 2)(3 4)", 4))


# -- group construction -------------------------------------------------------


def test_cyclic():
    G = make_group("cyclic:6")
    assert G.order == 6
    assert G.mul[2][5] == 1
    assert G.element_orders()[1] == 6
    assert G.element_orders()[2] == 3
    assert len(conjugacy_classes(G)) == 6


def test_dihedral_layout():
    G = make_group("dihedral:5")
    assert G.order == 10
    assert G.names[6] == "a*b"
    # relations a^5 = b^2 = 1, b a b = a^-1
    a, b = 1, 5
    assert G.m(a, 4) == 0
    assert G.m(b, b) == 0
    assert G.table[G.table[G.inv[b], a], b] == G.inv[a]  # b^-1 a b = a^-1
    part = conjugacy_classes(G)
    assert part.sizes == (1, 2, 2, 5)
    assert part.reps == (0, 1, 2, 5)


def test_dihedral_even_classes():
    G = make_group("dihedral:6")
    part = conjugacy_classes(G)
    assert part.sizes == (1, 2, 2, 1, 3, 3)
    assert part.reps == (0, 1, 2, 3, 6, 7)
    # reflections split into two classes for even n
    assert part.class_of[6] != part.class_of[7]
    assert part.class_of[6] == part.class_of[8]


def test_symmetric_and_alternating():
    S4 = make_group("symmetric:4")
    assert S4.order == 24
    assert len(conjugacy_classes(S4)) == 5
    A5 = make_group("alternating:5")
    assert A5.order == 60
    part = conjugacy_classes(A5)
    assert part.sizes == (1, 15, 20, 12, 12)
    orders = [A5.element_orders()[r] for r in part.reps]
    assert orders == [1, 2, 3, 5, 5]


def test_quaternion():
    Q = make_group("quaternion")
    assert Q.order == 8
    assert sorted(Q.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    part = conjugacy_classes(Q)
    assert part.sizes == (1, 2, 2, 2, 1)
    Z, D = center_and_derived(Q)
    assert len(Z) == 2 and len(D) == 2
    assert D.members == Z.members


def test_product():
    G = make_group("product:cyclic:2,cyclic:3")
    assert G.order == 6
    assert all(G.m(x, y) == G.m(y, x) for x in range(6) for y in range(6))
    H = make_group("product:cyclic:2,dihedral:3")
    assert H.order == 12
    nested = make_group("product:cyclic:2,product:cyclic:2,cyclic:2")
    assert nested.order == 8
    assert all(nested.element_orders()[x] <= 2 for x in range(8))


def test_perm_spec():
    G = make_group("perm:(1 2 3),(1 2)")
    assert G.order == 6
    assert G.family == "perm"
    H = make_group("perm:(1 2 3 4 5),(2 5)(3 4)")
    assert H.order == 10
    one = make_group("perm:()")  # no point named: the identity on one point
    assert one.order == 1 and one.names == ("()",) and one.perm_list == ((0,),)


def test_family_is_the_spec_prefix(tmp_path):
    path = tmp_path / "c3.json"
    save_group(make_group("cyclic:3"), str(path))
    for spec, family in [
        ("cyclic:4", "cyclic"),
        ("dihedral:3", "dihedral"),
        ("quaternion", "quaternion"),
        ("symmetric:3", "symmetric"),
        ("alternating:4", "alternating"),
        ("perm:(1 2 3)", "perm"),
        ("product:cyclic:2,dihedral:3", "product"),
        (f"file:{path}", "file"),
    ]:
        assert make_group(spec).family == family
    assert GroupTable([[0, 1], [1, 0]]).family == "table"


def test_spec_errors():
    for bad in ("", "cyclic", "cyclic:0", "dihedral:2", "symmetric:9",
                "noidea:3", "product:cyclic:2", "perm:", "cyclic:2,cyclic:3"):
        with pytest.raises(GroupSpecError):
            make_group(bad)
    with pytest.raises(GroupSpecError):
        make_group("symmetric:8")  # order 40320 exceeds the cap


def _never_built(*args):
    raise AssertionError("an oversized group was built")


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:5041",
        "cyclic:20161",
        "dihedral:10081",
        "alternating:8",
        "product:alternating:7,cyclic:3",
    ],
)
def test_oversized_specs_refused_before_building(spec, monkeypatch):
    for builder in ("_cyclic", "_dihedral", "_symmetric"):
        monkeypatch.setattr(groups, builder, _never_built)
    with pytest.raises(GroupSpecError, match="order .* exceeds cap 5040"):
        make_group(spec)


@pytest.mark.parametrize(
    "spec",
    ["perm:(1 2 3 4 5 6 7 8),(1 2)", "product:perm:(1 2 3 4 5 6),(1 2),cyclic:8"],
)
def test_oversized_perm_specs_refused(spec):
    # the closure stops at the cap; the product refuses before its own table
    with pytest.raises(GroupSpecError, match="exceeds cap"):
        make_group(spec)


def test_bad_tables_rejected():
    with pytest.raises(GroupLawError):
        GroupTable([[0, 1], [1, 1]])  # row 1 holds no 0: no inverse
    with pytest.raises(GroupLawError):
        GroupTable([[1, 0], [0, 1]])  # no identity at 0
    # a Latin square with identity that is not associative
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupLawError, match="associativity"):
        GroupTable(t)
    # Z_300 with one intercalate swapped (rows a, a+150 by columns c, c+150):
    # a Latin loop with identity 0 whose failing triples are too rare to sample
    rng = random.Random(300)
    for _ in range(8):
        a, c = rng.randrange(1, 150), rng.randrange(1, 150)
        t = [[(i + j) % 300 for j in range(300)] for i in range(300)]
        for r in (a, a + 150):
            t[r][c], t[r][c + 150] = t[r][c + 150], t[r][c]
        with pytest.raises(GroupLawError, match="associativity"):
            GroupTable(t)


def test_group_law_checks_reach_the_last_block():
    # order 300 is checked in blocks of 65536 // 300 = 218 rows; the first
    # two defects lie only in the second block, the third in row 1 but in
    # the second block of columns
    def z300():
        return [[(i + j) % 300 for j in range(300)] for i in range(300)]

    t = z300()
    t[299][1] = 1  # row 299 held its only 0 at column 1
    with pytest.raises(GroupLawError, match="element 299 has no inverse"):
        GroupTable(t)
    # neither table is Latin; Light's test on the generator 299 refuses both
    t = z300()
    t[280][5] = t[280][6]
    with pytest.raises(GroupLawError, match="associativity fails"):
        GroupTable(t)
    t = z300()
    t[1][250], t[1][260] = t[1][260], t[1][250]  # row 1 stays a permutation
    with pytest.raises(GroupLawError, match="associativity fails"):
        GroupTable(t)


def _is_group(t) -> bool:
    """The brute oracle: identity 0, Latin rows and columns, and every one
    of the n^3 triples associative."""
    M = np.asarray(t)
    n = len(M)
    ar = np.arange(n)
    if M.min() < 0 or M.max() >= n:
        return False
    return bool(
        (M[0] == ar).all()
        and (M[:, 0] == ar).all()
        and (np.sort(M, axis=1) == ar).all()
        and (np.sort(M, axis=0) == ar[:, None]).all()
        and (M[M] == M[:, M]).all()  # M[M[x, y], z] == M[x, M[y, z]]
    )


def _accepted(t) -> bool:
    try:
        GroupTable(t)
    except GroupLawError:
        return False
    return True


def test_group_laws_match_the_brute_oracle_at_order_3():
    # every magma of order 3 with identity 0; only Z_3 is a group
    verdicts = []
    for a, b, c, d in itertools.product(range(3), repeat=4):
        t = [[0, 1, 2], [1, a, b], [2, c, d]]
        assert _accepted(t) == _is_group(t), t
        verdicts.append(_is_group(t))
    assert len(verdicts) == 81 and sum(verdicts) == 1


def test_group_laws_match_the_brute_oracle_on_a_sample():
    # relabelled groups of order 4-8, some with one entry changed or two
    # entries of a row or column swapped, and random magmas with identity 0
    # and a 0 in every row
    rng = random.Random(2021)
    specs = [
        "cyclic:4", "product:cyclic:2,cyclic:2", "cyclic:5", "cyclic:6",
        "symmetric:3", "cyclic:7", "cyclic:8", "dihedral:4", "quaternion",
        "product:cyclic:2,cyclic:4", "product:cyclic:2,product:cyclic:2,cyclic:2",
    ]
    tables = []
    for spec in specs:
        M = make_group(spec).table
        n = len(M)
        for _ in range(40):
            p = [0] + rng.sample(range(1, n), n - 1)
            t = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    t[p[x]][p[y]] = p[M[x, y]]
            x, y, z = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
            change = rng.randrange(4)
            if change == 1:
                t[x][y] = rng.randrange(n)
            elif change == 2:
                t[x][y], t[x][z] = t[x][z], t[x][y]
            elif change == 3:
                t[y][x], t[z][x] = t[z][x], t[y][x]
            tables.append(t)
    for n in range(4, 9):
        for _ in range(40):
            t = [list(range(n))] + [
                [x] + [rng.randrange(n) for _ in range(n - 1)] for x in range(1, n)
            ]
            for row in t[1:]:
                if 0 not in row:
                    row[rng.randrange(1, n)] = 0
            tables.append(t)
    verdicts = [_is_group(t) for t in tables]
    for t, group in zip(tables, verdicts):
        assert _accepted(t) == group, t
    assert 0 < sum(verdicts) < len(tables)


def test_generator_bound_refuses_a_table_that_is_not_latin():
    # identity 0 and a 0 in every row, and Light's test passes on the one
    # greedy generator 2, whose closure {0, 2} misses 1
    with pytest.raises(GroupLawError, match=r"more than log2\(3\) greedy generators"):
        GroupTable([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def _comm(G, x, y):
    """x^-1 * y^-1 * x * y, literally from the table."""
    M, inv = G.table, G.inv
    return int(M[M[inv[x], inv[y]], M[x, y]])


def test_commutator_convention():
    G = make_group("symmetric:3")
    C = G.comm_table()
    assert C.dtype == np.int32 and C.shape == (6, 6)
    assert not C.flags.writeable
    for x in range(6):
        assert G.comm_row(x).tolist() == C[x].tolist()
        for y in range(6):
            assert C[x, y] == _comm(G, x, y)
            want = perms.pcomm(G.perm_list[x], G.perm_list[y])
            assert G.perm_list[C[x, y]] == want


def test_centralizer_and_center():
    G = make_group("dihedral:4")
    Z, D = center_and_derived(G)
    assert Z.members == (0, 2)
    assert D.members == (0, 2)
    c = centralizer(G, 1)
    assert c.members == (0, 1, 2, 3)
    S4 = make_group("symmetric:4")
    Z4, D4 = center_and_derived(S4)
    assert len(Z4) == 1
    assert len(D4) == 12
    evens = {x for x in range(24) if perms.is_even(S4.perm_list[x])}
    assert set(D4.members) == evens


def test_subgroup_generated():
    G = make_group("dihedral:6")
    H = subgroup_generated(G, [2])
    assert H.members == (0, 2, 4)
    whole = subgroup_generated(G, [1, 6])
    assert len(whole) == 12


def test_class_partition_is_canonical():
    G = make_group("symmetric:4")
    part = conjugacy_classes(G)
    assert part.reps == tuple(min(c) for c in part.classes)
    assert list(part.reps) == sorted(part.reps)
    assert part.classes[0] == (0,)
    for idx, cls in enumerate(part.classes):
        for e in cls:
            assert part.class_of[e] == idx


# -- the vectorized builders against their definitions -------------------------


def _quaternion_reference(G):
    """Hamilton products on the unit quaternions named by G.names."""
    units = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0),
             "k": (0, 0, 0, 1)}

    def parse(name):
        sign = -1 if name.startswith("-") else 1
        return tuple(sign * c for c in units[name.lstrip("-")])

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    elems = [parse(name) for name in G.names]
    index = {e: i for i, e in enumerate(elems)}
    return [[index[hamilton(p, q)] for q in elems] for p in elems]


def _reference_table(G):
    n = G.order
    if G.perm_list is not None:
        index = {p: i for i, p in enumerate(G.perm_list)}
        return [[index[perms.pmul(p, q)] for q in G.perm_list] for p in G.perm_list]
    if G.family == "cyclic":
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if G.family == "dihedral":
        m = n // 2  # index s*m + i is a^i b^s; a^i b^s * a^j b^t = a^(i+(-1)^s j) b^(s+t)
        return [[((s + t) % 2) * m + (i + (-1) ** s * j) % m
                 for t in range(2) for j in range(m)]
                for s in range(2) for i in range(m)]
    if G.family == "quaternion":
        return _quaternion_reference(G)
    A, B = G.product_parts
    A_ref, B_ref = _reference_table(A), _reference_table(B)
    nb = B.order
    return [[A_ref[x // nb][y // nb] * nb + B_ref[x % nb][y % nb] for y in range(n)]
            for x in range(n)]


def _generated(G, gens):
    """The subgroup generated by gens, by multiplying until nothing is new."""
    H = {0} | set(gens)
    while True:
        bigger = H | {G.m(x, y) for x in H for y in H}
        if bigger == H:
            return tuple(sorted(H))
        H = bigger


@pytest.mark.parametrize(
    "spec",
    [
        "symmetric:4",
        "symmetric:5",  # three generator maps
        "alternating:5",
        "perm:(1 2 3 4 5),(2 5)(3 4)",
        "perm:(1 2)(3 4 5)(6 7 8 9 10 11 12 13 14 15 16 17)",  # degree 17
        "dihedral:7",
        "quaternion",
        "product:symmetric:3,dihedral:4",
        "product:quaternion,cyclic:3",
    ],
)
def test_vectorized_builders_match_definitions(spec):
    G = make_group(spec)
    n = G.order
    assert [list(row) for row in G.mul] == _reference_table(G)
    assert G.table.tolist() == _reference_table(G)
    assert not G.table.flags.writeable
    if spec.startswith("perm:"):
        gens = [perms.parse_cycles(t, len(G.perm_list[0]))
                for t in spec[len("perm:"):].split(",")]
        reached, frontier = set(), [perms.identity(len(gens[0]))]
        while frontier:
            reached.update(frontier)
            frontier = {perms.pmul(p, g) for p in frontier for g in gens} - reached
        assert G.perm_list == tuple(sorted(reached, key=perms.sort_key))

    C = G.comm_table()
    assert C.tolist() == [[_comm(G, x, y) for y in range(n)] for x in range(n)]
    cents = [tuple(y for y in range(n) if G.m(x, y) == G.m(y, x)) for x in range(n)]
    assert G.centralizer_lists() == cents
    K = G.commuting()
    assert K.tolist() == [[y in cents[x] for y in range(n)] for x in range(n)]
    assert not K.flags.writeable
    assert all(centralizer(G, x).members == cents[x] for x in range(n))
    Z, D = center_and_derived(G)
    assert Z.members == tuple(x for x in range(n) if len(cents[x]) == n)
    commutators = {_comm(G, x, y) for x in range(n) for y in range(n)}
    assert D.members == _generated(G, commutators)
    assert subgroup_generated(G, [1]).members == _generated(G, [1])

    part = conjugacy_classes(G)
    M, inv = G.table, G.inv
    orbits = {tuple(sorted({int(M[M[inv[y], x], y]) for y in range(n)}))
              for x in range(n)}
    assert set(part.classes) == orbits
    assert part.reps == tuple(sorted(min(c) for c in orbits))
    assert all(x in part.classes[part.class_of[x]] for x in range(n))

    orders = []
    for x in range(n):
        k, y = 1, x
        while y != 0:
            y, k = G.m(y, x), k + 1
        orders.append(k)
    assert G.element_orders() == orders


@pytest.mark.parametrize("spec", verify.sweep_specs())
def test_derived_subgroup_is_generated_by_every_commutator(spec):
    G = make_group(spec)
    commutators = {_comm(G, x, y) for x in range(G.order) for y in range(G.order)}
    assert center_and_derived(G)[1].members == _generated(G, commutators)


def test_comm_row_is_the_same_with_and_without_the_matrix():
    # rows are computed from the table until comm_table() is built, then
    # gathered from it; both give equal int32 arrays of the same shape
    for spec in ("symmetric:4", "product:dihedral:5,cyclic:30"):
        G = make_group(spec)
        xs = [0, 3, np.int64(7), np.array([5, 1, 5]), np.arange(G.order)]
        before = [G.comm_row(x) for x in xs]
        G.comm_table()
        for x, row in zip(xs, before):
            after = G.comm_row(x)
            assert after.dtype == row.dtype == np.int32
            assert after.shape == row.shape and np.array_equal(after, row)


def test_comm_table_blocks_match_single_rows():
    # order 300 fills in blocks of 65536 // 300 = 218 rows; the last is partial
    G = make_group("product:dihedral:5,cyclic:30")
    assert G.order % (groups._BLOCK_PRODUCTS // G.order) != 0
    rows = np.stack([G.comm_row(x) for x in range(G.order)])
    assert np.array_equal(G.comm_table(), rows)


def _three_gather_comm(G, x):
    """x^-1 * y^-1 * x * y for every y and each x, by three chained gathers
    on the table: M[M[M[inv[x], inv], x], y]."""
    M, inv = G.table, G.inv
    return M[M[M[inv[x]][..., inv], np.expand_dims(x, -1)], np.arange(G.order)]


@pytest.mark.parametrize("spec", verify.sweep_specs() + ("symmetric:6",))
def test_comm_kernel_matches_the_three_gather_formula(spec):
    G = make_group(spec)
    n = G.order
    want = _three_gather_comm(G, np.arange(n))
    picks = np.random.default_rng(n).integers(0, n, size=7)
    cuts = [slice(0, n), slice(n // 3, n // 3 + 5), slice(n - 2, None), slice(1, n, 3)]

    def check_rows():
        for x in (0, n - 1, int(picks[0]), np.int64(picks[1])):
            got = G.comm_row(x)
            assert got.dtype == np.int32 and np.array_equal(got, want[x])
        got = G.comm_row(picks)
        assert got.dtype == np.int32 and np.array_equal(got, want[picks])
        for cut in cuts:
            got = G.comm_row(cut)
            assert got.dtype == np.int32 and np.array_equal(got, want[cut])

    assert "comm" not in G._memo  # rows from the table
    check_rows()
    C = G.comm_table()
    assert C.dtype == np.int32 and not C.flags.writeable
    assert np.array_equal(C, want)
    check_rows()  # rows from the matrix


def _left_map_table(plist):
    """A permutation list's table with every row found by one pmul and one
    dict lookup per element."""
    index = {p: i for i, p in enumerate(plist)}
    return [[index[perms.pmul(s, p)] for p in plist] for s in plist]


def _closure(gens):
    reached, frontier = set(), {perms.identity(len(gens[0]))}
    while frontier:
        reached |= frontier
        frontier = {perms.pmul(p, g) for p in frontier for g in gens} - reached
    return reached


@pytest.mark.parametrize(
    "spec",
    [f"symmetric:{n}" for n in range(1, 7)]
    + [f"alternating:{n}" for n in range(3, 7)]
    + ["perm:(1 2 3 4 5),(2 5)(3 4)",
       "perm:(1 2)(3 4 5)(6 7 8 9 10 11 12 13 14 15 16 17)"],  # degree 17
)
def test_permutation_tables_match_the_per_element_lookup(spec):
    G = make_group(spec)
    family, _, arg = spec.partition(":")
    if family == "perm":
        degree = len(G.perm_list[0])
        members = _closure([perms.parse_cycles(t, degree) for t in arg.split(",")])
    else:
        members = [p for p in itertools.permutations(range(int(arg)))
                   if family == "symmetric" or perms.is_even(p)]
    assert G.perm_list == tuple(sorted(members, key=perms.sort_key))
    assert G.table.tolist() == _left_map_table(G.perm_list)


# Greedy generators Light's test took when it chose the smallest unreached
# index; the largest, the rule of _table_from_perms, needs no more here.
_SMALLEST_FIRST_GENERATORS = {
    "symmetric:3": 2, "symmetric:4": 3, "symmetric:5": 4, "symmetric:6": 5,
    "symmetric:7": 6, "alternating:4": 3, "alternating:5": 3,
    "alternating:6": 4, "alternating:7": 5,
}


@pytest.mark.parametrize("spec", sorted(_SMALLEST_FIRST_GENERATORS))
def test_light_test_needs_few_generators(spec, monkeypatch):
    G = make_group(spec)
    seen = []

    def spy(M, reached, frontier, gens):
        seen.append(len(gens))
        close(M, reached, frontier, gens)

    close = groups._close
    monkeypatch.setattr(groups, "_close", spy)
    groups._check_group_laws(G.table)
    count = max(seen)
    assert 2**count <= G.order
    assert count <= _SMALLEST_FIRST_GENERATORS[spec]


def test_non_closed_sets_rejected():
    D4 = make_group("dihedral:4")
    with pytest.raises(GroupLawError, match=r"not closed: 1\*1 = 2 escapes"):
        SubgroupRef(D4, (0, 1))  # a has order 4
    assert SubgroupRef(D4, (0, 1, 2, 3)).members == (0, 1, 2, 3)
    # {(0, *), (1, *)} in C3 x C200: the 400 members are checked in row
    # blocks of 163, and the first 200 rows stay inside, so the first
    # product that escapes, (1, 0) * (1, 0) = (2, 0), lies in the second block.
    C3C200 = make_group("product:cyclic:3,cyclic:200")
    assert groups._BLOCK_PRODUCTS // 400 < 200
    with pytest.raises(GroupLawError, match=r"not closed: 200\*200 = 400 escapes"):
        SubgroupRef(C3C200, tuple(range(400)))
    cycle = perms.parse_cycles("(1 2 3)")
    with pytest.raises(GroupLawError) as refused:
        _table_from_perms([perms.identity(3), cycle], "perm:broken")
    assert str(refused.value) == (
        "permutation list not closed: (1 2 3)*(1 2 3) is not in it"
    )


def test_missing_product_found_by_a_later_generator_map():
    # Two right cosets of <(1 4 3)>, whose generator is the list's last
    # element: its map stays inside, and only the second generator's map,
    # that of (1 4 2), meets a product outside the list.
    plist = sorted(
        (perms.parse_cycles(t, 4)
         for t in ("()", "(1 2)(3 4)", "(1 3 2)", "(1 3 4)", "(1 4 2)", "(1 4 3)")),
        key=perms.sort_key,
    )
    first = plist[-1]
    assert perms.format_cycles(first) == "(1 4 3)"
    assert {perms.pmul(first, p) for p in plist} == set(plist)
    with pytest.raises(GroupLawError) as refused:
        _table_from_perms(plist, "perm:broken")
    assert str(refused.value) == (
        "permutation list not closed: (1 4 2)*(1 3 2) is not in it"
    )


def test_permutation_lists_with_a_repeat_or_no_identity_are_refused():
    e, t = perms.identity(3), perms.parse_cycles("(1 2)", 3)
    for plist in ([e, t, t], [t, e, t], [e, t, e]):
        with pytest.raises(GroupLawError) as refused:
            _table_from_perms(plist, "perm:broken")
        assert str(refused.value) == "permutation list has a repeated element"
    with pytest.raises(GroupLawError) as refused:
        _table_from_perms([t], "perm:broken")
    assert str(refused.value) == "permutation list not closed: () is not in it"
    # the table is right, but the identity is not at index 0
    with pytest.raises(GroupLawError, match="index 0 is not a two-sided identity"):
        _table_from_perms([t, e], "perm:broken")


def test_symmetric_7_table_agrees_with_composition_on_random_pairs():
    G = make_group("symmetric:7")
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, G.order, size=(2, 10**4))
    got = G.table[a, b]
    assert all(
        G.perm_list[int(ab)] == perms.pmul(G.perm_list[int(x)], G.perm_list[int(y)])
        for x, y, ab in zip(a, b, got)
    )


def test_cold_start_does_not_load_numpy_ma():
    # A plain np.unique imports numpy.ma on its first call; building a
    # group, its table and f3 both ways must not pay for it.
    script = textwrap.dedent("""
        import sys, numpy
        before = "numpy.ma" in sys.modules
        from commcount.chars import build_table
        from commcount.counts import brute_f_n, f3_from_characters
        from commcount.groups import make_group
        G = make_group("symmetric:4")
        f3_from_characters(G, build_table(G))
        brute_f_n(G, 3)
        print(before, "numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(groups.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=300, check=True).stdout.split()
    assert out[1] == out[0]
