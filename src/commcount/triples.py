"""Constructive triples: explicit (x1, x2, x3) with all pairwise commutators
equal to a prescribed even permutation.

The solver works block by block on the disjoint cycles of the target.  An
odd-length cycle is solved inside the order-2m dihedral subgroup generated
by the cycle and a reversal (where the count is known to be positive), and
even-length cycles — whose individual cycles are odd permutations and so
cannot be solved alone — are paired up and solved by a fixed triple per pair
of lengths, found once by a search over the pair's support.  Block
solutions are grafted together, which is sound because componentwise
products of commuting triples multiply their commutator values.  Every
returned triple is re-verified from scratch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .perms import cycles_of, identity, is_even, pcomm, pmul

PermTriple = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

MAX_DEGREE = 9


class TripleSearchError(RuntimeError):
    """No solution found where one is guaranteed to exist — a defect."""


@dataclass(frozen=True)
class CycleDecomposition:
    """The disjoint cycles of an even permutation, split by length parity.

    Fixed points count as odd cycles of length 1; the number of even-length
    cycles is itself even exactly when the permutation is even.
    """

    target: tuple[int, ...]
    even_cycles: tuple[tuple[int, ...], ...]
    odd_cycles: tuple[tuple[int, ...], ...]


def decompose_cycles(p: tuple[int, ...]) -> CycleDecomposition:
    if not is_even(p):
        raise ValueError(f"permutation is odd: {p}")
    evens, odds = [], []
    for cyc in cycles_of(p):
        (odds if len(cyc) % 2 else evens).append(cyc)
    return CycleDecomposition(tuple(p), tuple(evens), tuple(odds))


# -- block solvers (local, canonical targets, cached) ---------------------------


def _dihedral_members(m: int) -> list[tuple[int, ...]]:
    # the order-2m subgroup generated by the canonical m-cycle and the
    # reversal fixing 0
    cycle = tuple((i + 1) % m for i in range(m))
    members = []
    rot = identity(m)
    reflect = tuple((m - i) % m for i in range(m))
    for _ in range(m):
        members.append(rot)
        members.append(pmul(rot, reflect))
        rot = pmul(rot, cycle)
    return members


@cache
def _solve_odd_cycle(m: int) -> PermTriple:
    """A triple in the dihedral subgroup of Sym(m) solving for the
    canonical m-cycle; exists for every odd m >= 3."""
    target = tuple((i + 1) % m for i in range(m))
    members = _dihedral_members(m)
    for x in members:
        for y in members:
            if pcomm(x, y) != target:
                continue
            for z in members:
                if pcomm(x, z) == target and pcomm(y, z) == target:
                    return x, y, z
    raise TripleSearchError(f"no dihedral solution for an {m}-cycle")


# The triple in Sym(l1 + l2) solving for the product of the canonical even
# cycles (0..l1-1)(l1..l1+l2-1), for each pair l1 <= l2 with l1 + l2 <=
# MAX_DEGREE: the first solution of a search over the pair's support, which
# tests/test_triples.py repeats.  `ore_triple_symmetric` verifies every
# triple it builds from them.
_EVEN_PAIR_TRIPLES: dict[tuple[int, int], PermTriple] = {
    (2, 2): ((0, 2, 3, 1), (2, 0, 1, 3), (2, 3, 0, 1)),
    (2, 4): ((2, 3, 5, 0, 4, 1), (1, 0, 4, 3, 2, 5), (4, 3, 5, 1, 2, 0)),
    (4, 4): (
        (0, 2, 3, 4, 6, 7, 5, 1),
        (6, 5, 4, 7, 2, 1, 0, 3),
        (6, 4, 7, 2, 0, 3, 1, 5),
    ),
    (2, 6): (
        (2, 3, 4, 0, 7, 5, 1, 6),
        (1, 0, 4, 3, 2, 7, 6, 5),
        (4, 3, 2, 1, 5, 7, 0, 6),
    ),
}


def _embed(local: tuple[int, ...], points: tuple[int, ...], n: int) -> tuple[int, ...]:
    # graft a permutation of len(points) symbols onto the given points
    out = list(range(n))
    for i, image in enumerate(local):
        out[points[i]] = points[image]
    return tuple(out)


def _graft(triple: PermTriple, points: tuple[int, ...], n: int) -> PermTriple:
    return tuple(_embed(t, points, n) for t in triple)


def ore_triple_symmetric(n: int, g: tuple[int, ...]) -> PermTriple:
    """A verified triple (x1, x2, x3) of permutations of n points with
    [x1,x2] = [x1,x3] = [x2,x3] = g, for any even g; 3 <= n <= 9."""
    if not 3 <= n <= MAX_DEGREE:
        raise ValueError(f"degree n must be between 3 and {MAX_DEGREE}")
    g = tuple(g)
    if len(g) != n:
        raise ValueError(f"permutation has {len(g)} points, expected {n}")
    deco = decompose_cycles(g)

    blocks: list[tuple[tuple[int, ...], PermTriple]] = []
    for cyc in deco.odd_cycles:
        if len(cyc) >= 3:
            blocks.append((cyc, _solve_odd_cycle(len(cyc))))
    ordered = sorted(deco.even_cycles, key=len)
    for c1, c2 in zip(ordered[0::2], ordered[1::2]):
        blocks.append((c1 + c2, _EVEN_PAIR_TRIPLES[len(c1), len(c2)]))

    x1 = x2 = x3 = identity(n)
    for points, triple in blocks:
        t1, t2, t3 = _graft(triple, points, n)
        x1, x2, x3 = pmul(x1, t1), pmul(x2, t2), pmul(x3, t3)

    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        if pcomm(a, b) != g:
            raise TripleSearchError(
                f"constructed triple fails verification for {g}"
            )
    return x1, x2, x3
