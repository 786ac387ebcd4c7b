"""Constructive triples: explicit (x1, x2, x3) with all pairwise commutators
equal to a prescribed even permutation.

The solver works block by block on the disjoint cycles of the target.  An
odd-length cycle is solved inside the order-2m dihedral subgroup generated
by the cycle and a reversal (where the count is known to be positive), and
even-length cycles — whose individual cycles are odd permutations and so
cannot be solved alone — are paired up and solved by a targeted search over
the pair's support.  Block solutions are grafted together, which is sound
because componentwise products of commuting triples multiply their
commutator values.  Every returned triple is re-verified from scratch.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .groups import GroupTable
from .perms import (
    centralizer_perms,
    conjugator,
    cycle_type,
    cycles_of,
    identity,
    is_even,
    pcomm,
    pmul,
)

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

    def __post_init__(self):
        n = len(self.target)
        if len(self.even_cycles) % 2:
            raise ValueError("an even permutation has an even number of "
                             "even-length cycles")
        covered: set[int] = set()
        for cyc in self.even_cycles + self.odd_cycles:
            for i, point in enumerate(cyc):
                if point in covered:
                    raise ValueError(f"cycles overlap at point {point}")
                covered.add(point)
                if self.target[point] != cyc[(i + 1) % len(cyc)]:
                    raise ValueError("cycle does not follow the permutation")
        if covered != set(range(n)):
            raise ValueError("cycles must cover every point")
        if any(len(c) % 2 for c in self.even_cycles) or any(
            not len(c) % 2 for c in self.odd_cycles
        ):
            raise ValueError("cycle placed in the wrong parity bucket")


def decompose_cycles(p: tuple[int, ...]) -> CycleDecomposition:
    if not is_even(p):
        raise ValueError(f"permutation is odd: {p}")
    evens, odds = [], []
    for cyc in cycles_of(p):
        (odds if len(cyc) % 2 else evens).append(cyc)
    return CycleDecomposition(tuple(p), tuple(evens), tuple(odds))


def combine_disjoint_triples(
    G: GroupTable, tx: tuple[int, int, int], ty: tuple[int, int, int]
) -> tuple[int, int, int]:
    """(x1 y1, x2 y2, x3 y3) from commuting triples: if the x-triple solves
    for g and the y-triple for h, the product triple solves for gh."""
    for xi in tx:
        row = G.comm_row(xi)
        for yj in ty:
            if row[yj] != 0:
                raise ValueError(
                    f"components {xi} and {yj} do not commute"
                )
    g = _system_value(G, tx)
    h = _system_value(G, ty)
    combined = tuple(G.table[tx, ty].tolist())
    if _system_value(G, combined) != G.table[g, h]:
        raise RuntimeError("combined triple failed verification")
    return combined


def _system_value(G: GroupTable, t: tuple[int, int, int]) -> int:
    first = G.comm_row(t[0])
    g = int(first[t[1]])
    if first[t[2]] != g or G.comm_row(t[1])[t[2]] != g:
        raise ValueError(f"triple {t} has unequal pairwise commutators")
    return g


# -- block solvers (local, canonical targets, cached) ---------------------------

_odd_cycle_cache: dict[int, PermTriple] = {}
_even_pair_cache: dict[tuple[int, int], PermTriple] = {}


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


def _solve_odd_cycle(m: int) -> PermTriple:
    """A triple in the dihedral subgroup of Sym(m) solving for the
    canonical m-cycle; exists for every odd m >= 3."""
    got = _odd_cycle_cache.get(m)
    if got is not None:
        return got
    target = tuple((i + 1) % m for i in range(m))
    members = _dihedral_members(m)
    for x in members:
        for y in members:
            if pcomm(x, y) != target:
                continue
            for z in members:
                if pcomm(x, z) == target and pcomm(y, z) == target:
                    _odd_cycle_cache[m] = (x, y, z)
                    return x, y, z
    raise TripleSearchError(f"no dihedral solution for an {m}-cycle")


def _perms_by_centralizer_size(s: int):
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in permutations(range(s)):
        buckets.setdefault(cycle_type(p), []).append(p)

    def cent_order(typ: tuple[int, ...]) -> int:
        mult: dict[int, int] = {}
        for length in typ:
            mult[length] = mult.get(length, 0) + 1
        z = 1
        for length, m in mult.items():
            z *= length**m * factorial(m)
        return z

    for typ in sorted(buckets, key=lambda t: (cent_order(t), t)):
        yield from buckets[typ]


def _solve_even_pair(l1: int, l2: int) -> PermTriple:
    """A triple in Sym(l1 + l2) solving for the product of the canonical
    cycles (0..l1-1)(l1..l1+l2-1), both of even length.

    Candidates x are scanned by ascending centralizer size; every y with
    [x, y] = g lies in the coset C(x)·y0 for any one solution y0, so the
    search space per x is |C(x)|^2 pairs.
    """
    key = (l1, l2)
    got = _even_pair_cache.get(key)
    if got is not None:
        return got
    s = l1 + l2
    first = tuple(range(1, l1)) + (0,)
    second = tuple(range(l1 + 1, s)) + (l1,)
    target = first + second

    for x in _perms_by_centralizer_size(s):
        shifted = pmul(x, target)
        y0 = conjugator(x, shifted)
        if y0 is None:
            continue
        coset = [pmul(c, y0) for c in centralizer_perms(x)]
        for y in coset:
            for z in coset:
                if pcomm(y, z) == target:
                    _even_pair_cache[key] = (x, y, z)
                    return x, y, z
    raise TripleSearchError(
        f"no solution for an even cycle pair of lengths {key}"
    )


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
        if len(c1) > len(c2):
            c1, c2 = c2, c1
        blocks.append((c1 + c2, _solve_even_pair(len(c1), len(c2))))

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
