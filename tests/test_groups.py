from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from commcount import groups, perms, verify
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
    save_group,
    subgroup_generated,
)


# -- permutation helpers -----------------------------------------------------


def sort_key(p):
    """The canonical order, one permutation at a time: cycle type (lengths
    descending, compared ascending), then the one-line form."""
    return (perms.cycle_type(p), p)


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


SPEC_GRAMMAR_RESULTS = [
    ("  product:dihedral:3,quaternion  ", "product:dihedral:3,quaternion", 48),
    ("product:product:cyclic:2,cyclic:3,product:quaternion,cyclic:2",
     "product:product:cyclic:2,cyclic:3,product:quaternion,cyclic:2", 96),
    ("product:product:product:cyclic:2,cyclic:2,cyclic:2,cyclic:3",
     "product:product:product:cyclic:2,cyclic:2,cyclic:2,cyclic:3", 24),
    # a comma before "(" stays inside the generator list
    ("product:perm:(1 2),(1 2 3),cyclic:2", "product:perm:(1 2),(1 2 3),cyclic:2", 12),
    ("product:cyclic:2,perm:(1 2),(1 2 3)", "product:cyclic:2,perm:(1 2),(1 2 3)", 12),
    # a perm: spec is its generator texts joined by ",", so it parses again
    ("perm:(1 2),", "perm:(1 2)", 2),
    # generators split at commas outside parentheses only
    ("perm:(1,2,3),(1,2)", "perm:(1,2,3),(1,2)", 6),
    ("product:perm:(1,2),cyclic:2", "product:perm:(1,2),cyclic:2", 4),
]


def test_perm_points_separated_by_commas_give_the_same_group():
    G, H = make_group("perm:(1,2,3),(1,2)"), make_group("perm:(1 2 3),(1 2)")
    assert np.array_equal(G.table, H.table) and G.names == H.names


@pytest.mark.parametrize("text, spec, order", SPEC_GRAMMAR_RESULTS)
def test_spec_grammar_results(text, spec, order):
    G = make_group(text)
    assert (G.spec, G.order) == (spec, order)


@pytest.mark.parametrize("text, spec, order", SPEC_GRAMMAR_RESULTS)
def test_every_spec_reads_back_as_a_first_factor(text, spec, order):
    P = make_group(f"product:{make_group(text).spec},cyclic:2")
    assert (P.spec, P.order) == (f"product:{spec},cyclic:2", 2 * order)
    assert make_group(P.spec).spec == P.spec


@pytest.mark.parametrize(
    "text, message",
    [
        ("product:", "product spec needs two factors: 'product:'"),
        ("product:cyclic:2", "product spec needs two factors: 'product:cyclic:2'"),
        ("product:cyclic:2,", "unknown group spec ''"),
        ("product:,cyclic:2", "unknown group spec ''"),
        ("quaternion,cyclic:2",
         "trailing text ',cyclic:2' in group spec 'quaternion,cyclic:2'"),
        ("product:cyclic:2,cyclic:3,x",
         "trailing text ',x' in group spec 'product:cyclic:2,cyclic:3,x'"),
        ("product:cyclic:2,product:cyclic:3",
         "product spec needs two factors: 'product:cyclic:3'"),
        ("perm:,", "need at least one generator"),
        ("perm:(1 2),cyclic:2",
         "trailing text ',cyclic:2' in group spec 'perm:(1 2),cyclic:2'"),
        # a file: spec runs to the end of the text
        ("product:file:/x,cyclic:2",
         "product spec needs two factors: 'product:file:/x,cyclic:2'"),
        ("", "unknown group spec ''"),
        ("cyclic", "unknown group spec 'cyclic'"),
        ("cyclic:", "spec 'cyclic:' needs a numeric parameter"),
        # the whole text parses before any parameter is read, and every
        # parameter before the order cap
        ("product:cyclic:x", "product spec needs two factors: 'product:cyclic:x'"),
        ("cyclic:x,y", "trailing text ',y' in group spec 'cyclic:x,y'"),
        ("product:cyclic:x,noidea", "bad parameter in spec 'cyclic:x'"),
        ("product:symmetric:8,cyclic:x", "bad parameter in spec 'cyclic:x'"),
    ],
)
def test_spec_error_messages(text, message):
    with pytest.raises(GroupSpecError) as info:
        make_group(text)
    assert str(info.value) == message


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


def test_light_test_message_is_the_same_in_every_block():
    # order 300 is checked in blocks of 65536 // 300 = 218 rows; a defect in
    # a row of either block is refused by the first generator, 299, with
    # one message
    for row in (1, 280):
        t = [[(i + j) % 300 for j in range(300)] for i in range(300)]
        t[row][250], t[row][260] = t[row][260], t[row][250]  # a permutation still
        with pytest.raises(GroupLawError) as refused:
            GroupTable(t)
        assert str(refused.value) == "associativity fails with middle element 299"


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
    assert C.dtype == groups.INDEX_DTYPE and C.shape == (6, 6)
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
    assert subgroup_generated(G, np.array([4, 2, 2])).members == (0, 2, 4)


@pytest.mark.parametrize("bad", [-1, 6, 100, 1.0, "1", None])
def test_element_indices_outside_the_group_are_refused(bad):
    G = make_group("cyclic:6")
    with pytest.raises(ValueError, match=f"element index {bad!r} "):
        subgroup_generated(G, [1, bad])
    with pytest.raises(ValueError, match=f"element index {bad!r} "):
        centralizer(G, bad)


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
        "product:product:cyclic:2,symmetric:3,dihedral:4",
        "product:symmetric:3,dihedral:10",  # order 120, non-abelian factors
    ],
)
def test_vectorized_builders_match_definitions(spec):
    G = make_group(spec)
    n = G.order
    assert [list(row) for row in G.mul] == _reference_table(G)
    assert G.table.tolist() == _reference_table(G)
    assert not G.table.flags.writeable
    if G.product_parts is not None:
        # the inverses a product takes from its parts are the ones the full
        # group-law checks find
        inv, _ = groups._check_group_laws(G.table)
        assert inv.dtype == G.inv.dtype and np.array_equal(inv, G.inv)
    if spec.startswith("perm:"):
        gens = [perms.parse_cycles(t, len(G.perm_list[0]))
                for t in spec[len("perm:"):].split(",")]
        reached, frontier = set(), [perms.identity(len(gens[0]))]
        while frontier:
            reached.update(frontier)
            frontier = {perms.pmul(p, g) for p in frontier for g in gens} - reached
        assert G.perm_list == tuple(sorted(reached, key=sort_key))

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
    # gathered from it; both give equal INDEX_DTYPE arrays of the same shape
    for spec in ("symmetric:4", "product:dihedral:5,cyclic:30"):
        G = make_group(spec)
        xs = [0, 3, np.int64(7), np.array([5, 1, 5]), np.arange(G.order)]
        before = [G.comm_row(x) for x in xs]
        G.comm_table()
        for x, row in zip(xs, before):
            after = G.comm_row(x)
            assert after.dtype == row.dtype == groups.INDEX_DTYPE
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
            assert got.dtype == groups.INDEX_DTYPE and np.array_equal(got, want[x])
        got = G.comm_row(picks)
        assert got.dtype == groups.INDEX_DTYPE and np.array_equal(got, want[picks])
        for cut in cuts:
            got = G.comm_row(cut)
            assert got.dtype == groups.INDEX_DTYPE and np.array_equal(got, want[cut])

    assert "comm" not in G._memo  # rows from the table
    check_rows()
    C = G.comm_table()
    assert C.dtype == groups.INDEX_DTYPE and not C.flags.writeable
    assert np.array_equal(C, want)
    check_rows()  # rows from the matrix


@pytest.mark.parametrize(
    "spec", ["symmetric:4", "cyclic:12", "quaternion", "product:dihedral:5,cyclic:30"]
)
def test_element_arrays_share_the_index_dtype(spec):
    # every element index fits in int16 under the cap; CSR row starts are
    # positions, up to n^2, and stay int32
    assert groups.INDEX_DTYPE == np.int16
    assert np.iinfo(groups.INDEX_DTYPE).max >= groups.ORDER_CAP
    G = make_group(spec)
    for H in (G, GroupTable(G.table.tolist())):
        u, starts = H.commuting_pairs()
        arrays = [H.table, H.inv, H.comm_row(1), H.comm_row(np.arange(H.order)), u]
        arrays += [H.comm_table(), H.comm_row(1)]
        assert all(a.dtype == groups.INDEX_DTYPE for a in arrays)
        assert starts.dtype == np.int32


def _reference_rows(G, xs):
    """Rows xs of the table of a cyclic, permutation or product group, from
    its definition, as Python ints."""
    n = G.order
    if G.perm_list is not None:
        index = {p: i for i, p in enumerate(G.perm_list)}
        return [[index[perms.pmul(G.perm_list[x], q)] for q in G.perm_list] for x in xs]
    if G.family == "cyclic":
        return [[(x + y) % n for y in range(n)] for x in xs]
    A, B = G.product_parts
    nb = B.order
    rows = zip(_reference_rows(A, [x // nb for x in xs]), _reference_rows(B, [x % nb for x in xs]))
    return [[ra[y // nb] * nb + rb[y % nb] for y in range(n)] for ra, rb in rows]


@pytest.mark.parametrize("spec", ["cyclic:5040", "product:cyclic:70,cyclic:72", "symmetric:7"])
def test_index_arithmetic_at_the_cap_matches_an_int64_reference(spec, shared_group):
    # at order 5040 a flat position x * n + y reaches 25401599, far past
    # int16: sampled rows of the table, the inverses and the commutators
    # against Python ints and 2-D gathers with int64 indices
    G = shared_group(spec)
    assert "comm" not in G._memo  # no other test of the shared group builds it
    n = G.order
    picks = np.random.default_rng(n).integers(0, n, 3).tolist()
    xs = sorted({1, n // 2, n - 2, n - 1, *picks})
    assert G.table[xs].tolist() == _reference_rows(G, xs)
    inv = G.inv.astype(np.int64)
    assert (G.table[np.arange(n), inv] == 0).all()
    # [x, y] = (x^-1 y^-1)(x y)
    want = G.table[G.table[inv[xs]][:, inv].astype(np.int64), G.table[xs].astype(np.int64)]
    assert np.array_equal(G.comm_row(np.array(xs)), want)  # rows from the table
    assert np.array_equal(G.comm_row(slice(n - 2, None)), want[-2:])
    assert np.array_equal(G.comm_table()[xs], want)
    assert np.array_equal(G.comm_row(np.array(xs)), want)  # rows from the matrix


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
    assert G.perm_list == tuple(sorted(members, key=sort_key))
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
    # {(0, *), (1, *)} in C3 x C200: the smallest member, (0, 1), keeps the
    # set and reaches the first 200 members; the next one, (1, 0), takes
    # (1, 0) * (1, 0) = (2, 0) outside.  The 200 members before it stay
    # inside, more than one row block of the full |H|^2 check would hold.
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


@pytest.mark.parametrize("spec", ["quaternion", "dihedral:4", "product:cyclic:2,cyclic:4"])
def test_subgroup_proof_accepts_exactly_the_closed_sets(spec):
    G = make_group(spec)
    M = G.table.tolist()
    accepted = 0
    for rest in itertools.product((False, True), repeat=7):
        members = (0,) + tuple(x for x, keep in zip(range(1, 8), rest) if keep)
        closed = all(M[x][y] in members for x in members for y in members)
        try:
            SubgroupRef(G, members)
        except GroupLawError:
            assert not closed, members
        else:
            assert closed, members
            accepted += 1
    assert accepted == {"quaternion": 6, "dihedral:4": 10,
                        "product:cyclic:2,cyclic:4": 8}[spec]


def test_subgroup_members_must_be_increasing_indices_of_the_parent():
    D4 = make_group("dihedral:4")
    for members in ((0, 2, 1, 3), (0, 1, 1, 2, 3), (0, 8), (0, 1, 2, 3, -1)):
        with pytest.raises(GroupLawError, match="increasing indices below 8"):
            SubgroupRef(D4, members)


def test_product_tables_are_proved_equal_to_the_broadcast_of_their_parts():
    A, B = make_group("symmetric:3"), make_group("cyclic:4")
    G = make_group("product:symmetric:3,cyclic:4")
    assert GroupTable(G.table, product_parts=(A, B)).inv.tolist() == G.inv.tolist()
    t = G.table.copy()
    t[23, 5], t[23, 6] = t[23, 6], t[23, 5]  # row 23 stays a permutation
    with pytest.raises(GroupLawError, match="not the product of its parts' tables"):
        GroupTable(t, product_parts=(A, B))
    # the table of C4 x S3, a group, is not the broadcast of S3 and C4
    swapped = make_group("product:cyclic:4,symmetric:3")
    with pytest.raises(GroupLawError, match="not the product of its parts' tables"):
        GroupTable(swapped.table, product_parts=(A, B))
    with pytest.raises(GroupLawError, match=r"order 24 is not 6\*6"):
        GroupTable(G.table, product_parts=(A, A))


def test_missing_product_found_by_a_later_generator_map():
    # Two right cosets of <(1 4 3)>, whose generator is the list's last
    # element: its map stays inside, and only the second generator's map,
    # that of (1 4 2), meets a product outside the list.
    plist = sorted(
        (perms.parse_cycles(t, 4)
         for t in ("()", "(1 2)(3 4)", "(1 3 2)", "(1 3 4)", "(1 4 2)", "(1 4 3)")),
        key=sort_key,
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


def test_symmetric_7_table_agrees_with_composition_on_random_pairs(shared_group):
    G = shared_group("symmetric:7")
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


# -- canonical order, derived names, seeded Light's test, antisymmetry ------

_PSL27 = "perm:(1 2 3 4 5 6 7),(1 8)(2 7)(3 4)(5 6)"


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_order_is_the_sort_key_order(n):
    want = sorted(itertools.permutations(range(n)), key=sort_key)
    assert perms.all_perms(n) == want
    assert perms.even_perms(n) == [p for p in want if perms.is_even(p)]


@pytest.mark.parametrize(
    "spec",
    [
        _PSL27,
        "perm:(1 2 3 4 5),(2 5)(3 4)",
        "perm:(1 2)(3 4 5)(6 7 8 9 10 11 12 13 14 15 16 17)",  # keys past int64
        # degree 16, keys past int64 too
        "perm:(1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16),"
        "(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)",
        # degree 15, the widest int64 keys
        "perm:(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15),"
        "(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)",
        "perm:(1 3)(2 4),(1 2 3)",
        "perm:()",
    ],
)
def test_perm_closures_are_in_canonical_order(spec):
    G = make_group(spec)
    degree = len(G.perm_list[0])
    gens = [perms.parse_cycles(t, degree) for t in spec[len("perm:"):].split(",")]
    assert G.perm_list == tuple(sorted(_closure(gens), key=sort_key))
    assert list(G.perm_list) == perms.closure(gens, groups.ORDER_CAP)
    if spec == _PSL27:
        assert G.order == 168 and len(conjugacy_classes(G)) == 6


def _eager_names(G):
    """Each element's name as the constructors formatted it, one by one."""
    if G.perm_list is not None:
        return tuple(perms.format_cycles(p) for p in G.perm_list)
    if G.product_parts is not None:
        A, B = G.product_parts
        return tuple(f"({A.names[a]},{B.names[b]})"
                     for a in range(A.order) for b in range(B.order))
    if G.family == "cyclic":
        return ("1",) + tuple("a" if i == 1 else f"a^{i}" for i in range(1, G.order))
    if G.family == "dihedral":
        n = G.order // 2
        rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
        ref = ["b"] + ["a*b" if i == 1 else f"a^{i}*b" for i in range(1, n)]
        return tuple(rot + ref)
    if G.family == "quaternion":
        return ("1", "i", "j", "k", "-1", "-i", "-j", "-k")
    return ("1",) + tuple(f"g{i}" for i in range(1, G.order))


@pytest.mark.parametrize(
    "spec",
    verify.sweep_specs()
    + (_PSL27, "product:symmetric:3,product:quaternion,cyclic:2",
       "product:perm:(1 2 3),dihedral:4", "product:symmetric:4,dihedral:10"),
)
def test_names_on_first_read_are_the_eager_names(spec):
    G = make_group(spec)
    derived = G.family in ("symmetric", "alternating", "perm", "product")
    assert ("names" in G._memo) == (not derived)
    assert G.names == _eager_names(G)
    assert G.names is G.names  # formatted once


def test_names_of_file_groups(tmp_path):
    G = make_group("product:symmetric:3,cyclic:2")
    path = tmp_path / "g.json"
    save_group(G, path)
    F = make_group(f"file:{path}")
    assert "names" in F._memo and F.names == G.names
    doc = json.loads(path.read_text())
    del doc["names"]
    path.write_text(json.dumps(doc))
    F = make_group(f"file:{path}")
    assert "names" not in F._memo
    assert F.names == _eager_names(F) == ("1",) + tuple(f"g{i}" for i in range(1, 12))
    with pytest.raises(GroupLawError, match="expected 6 names, got 5"):
        GroupTable(make_group("symmetric:3").table, names=list("abcde"))


def test_searches_structure_and_tables_format_no_name():
    from commcount.chars import build_table
    from commcount.counts import brute_f_n, brute_t_n, f3_from_characters

    for spec in ("symmetric:4", "product:symmetric:3,cyclic:2", _PSL27):
        G = make_group(spec)
        conjugacy_classes(G)
        center_and_derived(G)
        G.comm_table()
        brute_f_n(G, 3)
        brute_t_n(G, 3)
        if G.family != "perm":
            f3_from_characters(G, build_table(G))
        assert "names" not in G._memo, spec


@pytest.mark.parametrize("spec,blocks", [("symmetric:6", 8), ("alternating:7", 97)])
def test_comm_table_by_antisymmetry_matches_comm_row(spec, blocks):
    G = make_group(spec)
    n = G.order
    step = groups._BLOCK_PRODUCTS // n
    assert -(-n // step) == blocks
    rows = np.concatenate([G.comm_row(slice(lo, lo + step)) for lo in range(0, n, step)])
    C = G.comm_table()
    for x in range(n):
        assert np.array_equal(C[x], rows[x]), x
    assert np.array_equal(C.T, G.inv[C])  # C[y, x] == inv[C[x, y]]
    assert np.array_equal(C, _three_gather_comm(G, np.arange(n)))


def _spec_generators(spec):
    family, _, arg = spec.partition(":")
    n = int(arg)
    long_cycle = "(" + " ".join(map(str, range(1 if family == "symmetric" or n % 2 else 2,
                                                n + 1))) + ")"
    first = "(1 2)" if family == "symmetric" else "(1 2 3)"
    return [perms.parse_cycles(first, n), perms.parse_cycles(long_cycle, n)]


def _spy_on_close(monkeypatch):
    seen = []
    close = groups._close

    def spy(M, reached, frontier, gens):
        seen.append(list(gens))
        return close(M, reached, frontier, gens)

    monkeypatch.setattr(groups, "_close", spy)
    return seen


@pytest.mark.parametrize(
    "spec", [f"{f}:{n}" for f in ("symmetric", "alternating") for n in (5, 6, 7)]
)
def test_light_test_takes_the_spec_generators(spec, monkeypatch):
    seen = _spy_on_close(monkeypatch)
    G = make_group(spec)
    first, second = (G.perm_list.index(p) for p in _spec_generators(spec))
    assert seen == [[first], [first, second]]
    assert perms.is_even(G.perm_list[second]) or spec.startswith("symmetric")


def test_seeds_that_reach_part_of_the_group_fall_back_to_greedy(monkeypatch):
    G = make_group("symmetric:5")
    five_cycle = G.perm_list.index(perms.parse_cycles("(1 2 3 4 5)", 5))
    seen = _spy_on_close(monkeypatch)
    inv, _ = groups._check_group_laws(G.table, [five_cycle])
    assert np.array_equal(inv, G.inv)
    # the 5-cycle reaches the 5 elements of its cyclic group; the largest
    # index outside it, the last element, is the next generator
    assert seen[0] == [five_cycle]
    assert seen[1] == [five_cycle, G.order - 1]
    assert len(seen) <= G.order.bit_length() - 1


def test_seeded_light_test_rejects_a_table_with_two_entries_swapped():
    G = make_group("symmetric:5")
    seeds = [G.perm_list.index(p) for p in _spec_generators("symmetric:5")]
    for x, y, z in ((1, 2, 3), (7, 50, 90), (5, 10, 100)):
        t = G.table.copy()
        t[x, y], t[x, z] = t[x, z], t[x, y]  # row x stays a permutation
        with pytest.raises(GroupLawError) as refused:
            GroupTable(t, spec="symmetric:5", perm_list=G.perm_list, generators=seeds)
        assert str(refused.value) == f"associativity fails with middle element {seeds[0]}"
        with pytest.raises(GroupLawError) as refused:
            GroupTable(t)
        assert str(refused.value) == f"associativity fails with middle element {G.order - 1}"
    t = G.table.copy()
    t[G.order - 1, 0], t[G.order - 1, 1] = t[G.order - 1, 1], t[G.order - 1, 0]
    with pytest.raises(GroupLawError, match="index 0 is not a two-sided identity"):
        GroupTable(t, generators=seeds)


@pytest.mark.parametrize(
    "spec,gens,most",
    [("cyclic:5040", [5039], 13), ("cyclic:5040", [1], 13),
     ("dihedral:100", [199, 198], 15), ("symmetric:7", None, 13)],
)
def test_close_doubles_along_long_cycles(spec, gens, most, shared_group):
    G = shared_group(spec)
    if gens is None:
        gens = [G.perm_list.index(p) for p in _spec_generators(spec)]
    reached = np.zeros(G.order, dtype=bool)
    reached[0] = True
    rounds = groups._close(G.table, reached, np.array([0]), gens)
    assert reached.all()
    assert rounds <= most  # one round per element of the long cycle before


def test_close_reaches_the_generated_subgroup_only():
    G = make_group("symmetric:5")
    for texts in (["(1 2 3 4 5)"], ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2 3)", "(3 4 5)"]):
        gens = [G.perm_list.index(perms.parse_cycles(t, 5)) for t in texts]
        reached = np.zeros(G.order, dtype=bool)
        reached[0] = True
        groups._close(G.table, reached, np.array([0]), gens)
        assert tuple(np.flatnonzero(reached).tolist()) == _generated(G, gens)


PRODUCT_SPECS = (
    "product:cyclic:2,cyclic:3",
    "product:cyclic:2,product:cyclic:2,cyclic:2",
    "product:symmetric:3,dihedral:4",
    "product:quaternion,cyclic:3",
    "product:product:cyclic:2,symmetric:3,dihedral:4",
    "product:symmetric:3,dihedral:10",
    "product:perm:(1 2 3),dihedral:4",
    "product:symmetric:4,dihedral:10",
    "product:alternating:5,cyclic:5",
)


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_product_commuting_matrix_is_the_and_of_its_factors(spec):
    G = make_group(spec)
    K = G.commuting()
    assert K.dtype == bool and not K.flags.writeable
    assert np.array_equal(K, G.table == G.table.T)


@pytest.mark.parametrize("spec", verify.sweep_specs() + PRODUCT_SPECS + ("symmetric:6",))
def test_commuting_pairs_are_the_rows_of_the_commuting_matrix(spec):
    G = make_group(spec)
    K = G.commuting()
    u, starts = G.commuting_pairs()
    assert u.dtype == groups.INDEX_DTYPE and starts.dtype == np.int32
    assert not u.flags.writeable and not starts.flags.writeable
    assert len(starts) == G.order + 1 and starts[0] == 0 and starts[-1] == len(u)
    for x in range(G.order):
        assert np.array_equal(u[starts[x]:starts[x + 1]], np.flatnonzero(K[x]))
    # |C(x)| = |G| / |class of x|
    part = conjugacy_classes(G)
    class_sizes = np.array(part.sizes)[list(part.class_of)]
    assert (np.diff(starts) * class_sizes == G.order).all()
    # the tuples one flatnonzero per row gave
    cents = G.centralizer_lists()
    assert cents == [tuple(np.flatnonzero(row).tolist()) for row in K]
    assert all(type(y) is int for c in cents for y in c)


@pytest.mark.parametrize(
    "spec", verify.sweep_specs() + ("cyclic:240", "product:cyclic:16,cyclic:16")
)
def test_abelian_groups_take_one_class_per_element(spec):
    G = make_group(spec)
    assert G.abelian == bool((G.table == G.table.T).all())
    assert GroupTable(G.table).abelian == G.abelian
    part = conjugacy_classes(G)
    assert "commuting" not in G._memo
    if G.abelian:
        assert part == groups._partition(groups._orbit_classes(G))
        assert part.sizes == (1,) * G.order
