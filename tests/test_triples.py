import itertools
import random
from collections import Counter
from math import factorial, prod

import pytest

from commcount import perms
from commcount.chars import partitions_of
from commcount.perms import (
    cycle_type,
    cycles_of,
    even_perms,
    format_cycles,
    identity,
    parse_cycles,
    pcomm,
    pmul,
)
from commcount.triples import (
    _EVEN_PAIR_TRIPLES,
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


# -- the search that found the even-pair triples ------------------------------


def _pconj(p, w):
    """w^-1 * p * w."""
    return pmul(pmul(perms.pinv(w), p), w)


def conjugator(p, q):
    """Some w with w^-1 * p * w == q, or None if p and q are not conjugate."""
    if cycle_type(p) != cycle_type(q):
        return None
    by_len_p: dict[int, list] = {}
    by_len_q: dict[int, list] = {}
    for c in cycles_of(p):
        by_len_p.setdefault(len(c), []).append(c)
    for c in cycles_of(q):
        by_len_q.setdefault(len(c), []).append(c)
    w = [0] * len(p)
    for length, cps in by_len_p.items():
        for cp, cq in zip(cps, by_len_q[length]):
            for a, b in zip(cp, cq):
                w[a] = b
    return tuple(w)


def centralizer_perms(p):
    """Iterate every permutation commuting with p (rotations of the cycles
    composed with permutations of equal-length cycles)."""
    n = len(p)
    by_len: dict[int, list] = {}
    for c in cycles_of(p):
        by_len.setdefault(len(c), []).append(c)
    lengths = sorted(by_len)
    choice_sets = []
    for length in lengths:
        m = len(by_len[length])
        perms_of_cycles = list(itertools.permutations(range(m)))
        rotations = list(itertools.product(range(length), repeat=m))
        choice_sets.append([(pi, rot) for pi in perms_of_cycles for rot in rotations])
    for combo in itertools.product(*choice_sets):
        w = [0] * n
        for length, (pi, rot) in zip(lengths, combo):
            group = by_len[length]
            for i, src in enumerate(group):
                dst = group[pi[i]]
                for j, a in enumerate(src):
                    w[a] = dst[(j + rot[i]) % length]
        yield tuple(w)


def _centralizer_order(typ):
    """|C(p)| in Sym(n) for p of cycle type typ: prod l^m * m! over the
    lengths l that occur m times."""
    return prod(length**m * factorial(m) for length, m in Counter(typ).items())


def _perms_by_centralizer_size(s):
    """Every permutation of s points, by ascending centralizer order of its
    cycle type (ties by type), each type in itertools order."""
    for typ in sorted(partitions_of(s), key=lambda t: (_centralizer_order(t), t)):
        yield from (p for p in itertools.permutations(range(s)) if cycle_type(p) == typ)


def search_even_pair(l1, l2):
    """The first triple in Sym(l1 + l2) solving for (0..l1-1)(l1..l1+l2-1).

    Candidates x are scanned by ascending centralizer size; every y with
    [x, y] = g lies in the coset C(x)·y0 for any one solution y0, so the
    search space per x is |C(x)|^2 pairs."""
    s = l1 + l2
    target = tuple(range(1, l1)) + (0,) + tuple(range(l1 + 1, s)) + (l1,)
    for x in _perms_by_centralizer_size(s):
        y0 = conjugator(x, pmul(x, target))
        if y0 is None:
            continue
        coset = [pmul(c, y0) for c in centralizer_perms(x)]
        for y in coset:
            for z in coset:
                if pcomm(y, z) == target:
                    return x, y, z
    return None


def test_conjugator():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 8)
        p = tuple(rng.sample(range(n), n))
        w = tuple(rng.sample(range(n), n))
        q = _pconj(p, w)
        w2 = conjugator(p, q)
        assert w2 is not None
        assert _pconj(p, w2) == q
    assert conjugator((1, 0, 2), (0, 1, 2)) is None


def test_centralizer_perms():
    p = perms.parse_cycles("(1 2)(3 4)", 4)
    cent = list(centralizer_perms(p))
    assert len(cent) == len(set(cent)) == 8
    assert all(perms.pmul(w, p) == perms.pmul(p, w) for w in cent)
    q = perms.parse_cycles("(1 2 3)", 5)
    cent_q = set(centralizer_perms(q))
    brute = {
        w for w in perms.all_perms(5) if perms.pmul(w, q) == perms.pmul(q, w)
    }
    assert cent_q == brute


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
    assert ", ".join(map(format_cycles, _EVEN_PAIR_TRIPLES[lengths])) == want
    assert search_even_pair(*lengths) == _EVEN_PAIR_TRIPLES[lengths]


def test_even_pair_table_covers_every_pair_up_to_degree_9():
    pairs = {(a, b) for a in range(2, 10, 2) for b in range(a, 10, 2) if a + b <= 9}
    assert set(_EVEN_PAIR_TRIPLES) == pairs


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
