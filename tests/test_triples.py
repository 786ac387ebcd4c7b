import pytest

from commcount.chars import partitions_of
from commcount.groups import make_group
from commcount.perms import even_perms, format_cycles, identity, parse_cycles, pcomm
from commcount.triples import (
    CycleDecomposition,
    _solve_even_pair,
    combine_disjoint_triples,
    decompose_cycles,
    ore_triple_symmetric,
)


def assert_solves(n, g):
    triple = ore_triple_symmetric(n, g)
    x1, x2, x3 = triple
    assert pcomm(x1, x2) == g
    assert pcomm(x1, x3) == g
    assert pcomm(x2, x3) == g


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_even_permutation_is_solved(n):
    for g in even_perms(n):
        assert_solves(n, g)


def canonical_of_partition(lam, n):
    points = iter(range(n))
    out = list(range(n))
    for part in lam:
        block = [next(points) for _ in range(part)]
        for a, b in zip(block, block[1:] + block[:1]):
            out[a] = b
    return tuple(out)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_every_even_class_rep_is_solved(n):
    reps = [
        canonical_of_partition(lam, n)
        for lam in partitions_of(n)
        if sum(1 for part in lam if part % 2 == 0) % 2 == 0
    ]
    assert len(reps) > 5
    for g in reps:
        assert_solves(n, g)


@pytest.mark.parametrize(
    "lengths, want",
    [
        ((2, 2), "(2 3 4), (1 3 2), (1 3)(2 4)"),
        ((2, 4), "(1 3 6 2 4), (1 2)(3 5), (1 5 3 6)(2 4)"),
        ((4, 4), "(2 3 4 5 7 6 8), (1 7)(2 6)(3 5)(4 8), (1 7 2 5)(3 8 6 4)"),
        ((2, 6), "(1 3 5 8 7 2 4), (1 2)(3 5)(6 8), (1 5 6 8 7)(2 4)"),
    ],
)
def test_even_pair_solutions_are_the_first_in_candidate_order(lengths, want):
    # Candidates come by ascending centralizer order of their cycle type,
    # each type in itertools order; the first solution found is pinned.
    assert ", ".join(map(format_cycles, _solve_even_pair(*lengths))) == want


def test_identity_target():
    triple = ore_triple_symmetric(5, identity(5))
    assert triple == (identity(5),) * 3


def test_solver_is_deterministic():
    g = parse_cycles("(1 2)(3 4 5 6)", 6)
    assert ore_triple_symmetric(6, g) == ore_triple_symmetric(6, g)


def test_solver_input_errors():
    with pytest.raises(ValueError, match="between 3 and 9"):
        ore_triple_symmetric(2, (1, 0))
    with pytest.raises(ValueError, match="between 3 and 9"):
        ore_triple_symmetric(10, tuple(range(10)))
    with pytest.raises(ValueError, match="odd"):
        ore_triple_symmetric(4, (1, 0, 2, 3))
    with pytest.raises(ValueError, match="expected 5"):
        ore_triple_symmetric(5, (1, 0, 3, 2))


def test_decompose_cycles():
    g = parse_cycles("(1 2)(3 4 5 6)", 8)
    deco = decompose_cycles(g)
    assert sorted(len(c) for c in deco.even_cycles) == [2, 4]
    assert sorted(len(c) for c in deco.odd_cycles) == [1, 1]
    assert deco.target == g

    with pytest.raises(ValueError, match="odd"):
        decompose_cycles((1, 0, 2))


def test_decomposition_validation():
    g = parse_cycles("(1 2)(3 4)", 4)
    with pytest.raises(ValueError, match="even number"):
        CycleDecomposition(g, ((0, 1),), ((2,), (3,)))
    with pytest.raises(ValueError, match="cover"):
        CycleDecomposition(g, (), ())
    with pytest.raises(ValueError, match="overlap"):
        CycleDecomposition(g, ((0, 1), (1, 2)), ())
    with pytest.raises(ValueError, match="follow"):
        CycleDecomposition(
            parse_cycles("(1 2 3 4)(5 6)", 6), ((0, 2, 1, 3), (4, 5)), ()
        )
    with pytest.raises(ValueError, match="parity bucket"):
        CycleDecomposition(
            parse_cycles("(1 2 3)(4 5 6)", 6), ((0, 1, 2), (3, 4, 5)), ()
        )
    # a correct decomposition passes
    CycleDecomposition(g, ((0, 1), (2, 3)), ())


def grafted_triple_indices(G, txt, n):
    # solve a small target, then look the permutations up in the big table
    g = parse_cycles(txt, n)
    triple = ore_triple_symmetric(n, g)
    index = {p: i for i, p in enumerate(G.perm_list)}
    return tuple(index[p] for p in triple), index[g]


def test_combine_disjoint_triples():
    G = make_group("symmetric:6")
    tx, gx = grafted_triple_indices(G, "(1 2 3)", 6)
    ty, gy = grafted_triple_indices(G, "(4 5 6)", 6)

    combined = combine_disjoint_triples(G, tx, ty)
    want = {p: i for i, p in enumerate(G.perm_list)}[
        parse_cycles("(1 2 3)(4 5 6)", 6)
    ]
    pairs = [(0, 1), (0, 2), (1, 2)]
    P = G.perm_list
    assert all(pcomm(P[combined[i]], P[combined[j]]) == P[want] for i, j in pairs)

    # the identity triple is neutral
    assert combine_disjoint_triples(G, tx, (0, 0, 0)) == tx

    # the product target follows the product of the block targets
    tz, _ = grafted_triple_indices(G, "(4 6 5)", 6)
    merged = combine_disjoint_triples(G, tx, tz)
    assert pcomm(P[merged[0]], P[merged[1]]) == parse_cycles("(1 2 3)(4 6 5)", 6)


def test_combine_rejects_bad_input():
    G = make_group("symmetric:6")
    tx, _ = grafted_triple_indices(G, "(1 2 3)", 6)
    overlapping, _ = grafted_triple_indices(G, "(3 4 5)", 6)
    with pytest.raises(ValueError, match="commute"):
        combine_disjoint_triples(G, tx, overlapping)

    ty, _ = grafted_triple_indices(G, "(4 5 6)", 6)
    broken = (ty[0], ty[1], 0)
    with pytest.raises(ValueError, match="unequal"):
        combine_disjoint_triples(G, tx, broken)
