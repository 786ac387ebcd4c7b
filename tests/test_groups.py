from __future__ import annotations

import random

import numpy as np
import pytest

from commcount import groups, perms
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


def test_conjugator():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 8)
        p = tuple(rng.sample(range(n), n))
        w = tuple(rng.sample(range(n), n))
        q = perms.pconj(p, w)
        w2 = perms.conjugator(p, q)
        assert w2 is not None
        assert perms.pconj(p, w2) == q
    assert perms.conjugator((1, 0, 2), (0, 1, 2)) is None


def test_centralizer_perms():
    p = perms.parse_cycles("(1 2)(3 4)", 4)
    cent = list(perms.centralizer_perms(p))
    assert len(cent) == len(set(cent)) == 8
    assert all(perms.pmul(w, p) == perms.pmul(p, w) for w in cent)
    q = perms.parse_cycles("(1 2 3)", 5)
    cent_q = set(perms.centralizer_perms(q))
    brute = {
        w for w in perms.all_perms(5) if perms.pmul(w, q) == perms.pmul(q, w)
    }
    assert cent_q == brute


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
        GroupTable([[0, 1], [1, 1]])  # not Latin
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
        "alternating:5",
        "perm:(1 2 3 4 5),(2 5)(3 4)",
        "perm:(1 2)(3 4 5)(6 7 8 9 10 11 12 13 14 15 16 17)",  # keys as bytes
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
    with pytest.raises(GroupLawError, match="not closed"):
        _table_from_perms([perms.identity(3), cycle], "perm", "perm:broken")
